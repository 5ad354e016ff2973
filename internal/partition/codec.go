package partition

// Fragment shipping: the deploy-time wire encoding a networked
// deployment uses to make a fragment resident at a remote site server
// (cmd/dgsd). The encoding carries exactly the state §2.2 defines —
// local nodes with labels and adjacency, virtual nodes with labels,
// in-nodes with their watcher annotations — read off the fragment's
// index, and the decoder fills a fresh index with it directly and
// recounts the edge totals, so a decoded fragment is Validate-equivalent
// to the original and ready for live mutation.
//
// Layout (little-endian), per fragment:
//
//	u32 id
//	u32 |Local|,   then per local node:   u32 id, u16 label
//	u32 |Virtual|, then per virtual node: u32 id, u16 label
//	u32 |InNodes|, then per in-node:      u32 id, u32 #watchers, u32 ×watcher
//	per local node (same order as Local): u32 degree, u32 ×target
//
// Graph-level node labels never change under live updates, so labels can
// ship once at deploy time; edges are the mutable part and are mutated
// in place by maintenance sessions after shipping.

import (
	"cmp"
	"fmt"
	"slices"

	"dgs/internal/graph"
	"dgs/internal/wire"
)

func appendU32(dst []byte, x uint32) []byte { return wire.AppendUint32(dst, x) }
func appendU16(dst []byte, x uint16) []byte { return wire.AppendUint16(dst, x) }

// AppendFragment appends f's wire encoding to dst.
func AppendFragment(dst []byte, f *Fragment) []byte {
	ix := f.Index()
	dst = appendU32(dst, uint32(f.ID))
	dst = appendU32(dst, uint32(len(f.Local)))
	for _, v := range f.Local {
		li, _ := ix.Find(v)
		dst = appendU32(dst, v)
		dst = appendU16(dst, ix.Labels[li])
	}
	dst = appendU32(dst, uint32(len(f.Virtual)))
	for j, v := range f.Virtual {
		dst = appendU32(dst, v)
		dst = appendU16(dst, ix.Labels[int(ix.NL)+j])
	}
	dst = appendU32(dst, uint32(len(f.InNodes)))
	for _, v := range f.InNodes {
		ws := f.InWatchers[v]
		dst = appendU32(dst, v)
		dst = appendU32(dst, uint32(len(ws)))
		for _, w := range ws {
			dst = appendU32(dst, uint32(w))
		}
	}
	for _, v := range f.Local {
		li, _ := ix.Find(v)
		succ := ix.Succ[li]
		dst = appendU32(dst, uint32(len(succ)))
		for _, wi := range succ {
			dst = appendU32(dst, ix.Vis[wi])
		}
	}
	return dst
}

// DecodeFragment parses one AppendFragment encoding from the front of b
// and returns the fragment, indexed, plus the remaining bytes. It refuses
// a fragment without the structure the rest of the system relies on:
// Local, Virtual, InNodes, every watcher list and every successor row
// strictly ascending (so sorted and duplicate-free), Local and Virtual
// disjoint, every in-node local, every successor visible. Each count is
// checked against the bytes left before anything is allocated for it.
// Cross-fragment facts — nodes inside the owner directory, watchers
// naming real sites, labels inside the dictionary — are the caller's to
// check.
func DecodeFragment(b []byte) (*Fragment, []byte, error) {
	r := wire.NewByteReader(b)
	id, err := r.U32()
	if err != nil {
		return nil, nil, err
	}
	f := &Fragment{ID: int(id), InWatchers: make(map[graph.NodeID][]int)}
	// A local costs 6 bytes here and a 4-byte degree at the end.
	nl, err := readCount(r, 10, "local")
	if err != nil {
		return nil, nil, err
	}
	f.Local = make([]graph.NodeID, nl)
	labels := make([]graph.Label, nl) // the locals', then the virtuals'
	for i := range f.Local {
		if f.Local[i], err = readAscending(r, f.Local[:i], "local"); err != nil {
			return nil, nil, err
		}
		if labels[i], err = r.U16(); err != nil {
			return nil, nil, err
		}
	}
	nv, err := readCount(r, 6, "virtual")
	if err != nil {
		return nil, nil, err
	}
	f.Virtual = make([]graph.NodeID, nv)
	labels = slices.Grow(labels, nv)[:nl+nv]
	for i := range f.Virtual {
		v, err := readAscending(r, f.Virtual[:i], "virtual")
		if err != nil {
			return nil, nil, err
		}
		if f.IsLocal(v) {
			return nil, nil, fmt.Errorf("partition: fragment %d holds node %d as both local and virtual", id, v)
		}
		f.Virtual[i] = v
		if labels[nl+i], err = r.U16(); err != nil {
			return nil, nil, err
		}
	}
	ni, err := readCount(r, 8, "in-node")
	if err != nil {
		return nil, nil, err
	}
	f.InNodes = make([]graph.NodeID, ni)
	for i := range f.InNodes {
		v, err := readAscending(r, f.InNodes[:i], "in-node")
		if err != nil {
			return nil, nil, err
		}
		if !f.IsLocal(v) {
			return nil, nil, fmt.Errorf("partition: fragment %d lists in-node %d, which is not local", id, v)
		}
		f.InNodes[i] = v
		nw, err := readCount(r, 4, "watcher")
		if err != nil {
			return nil, nil, err
		}
		if nw == 0 {
			return nil, nil, fmt.Errorf("partition: fragment %d's in-node %d has no watcher", id, v)
		}
		ws := make([]int, nw)
		for j := range ws {
			w, err := r.U32()
			if err != nil {
				return nil, nil, err
			}
			if j > 0 && int(w) <= ws[j-1] {
				return nil, nil, fmt.Errorf("partition: fragment %d's watchers of %d are not strictly ascending", id, v)
			}
			ws[j] = int(w)
		}
		f.InWatchers[v] = ws
	}
	var row []graph.NodeID
	if f.idx, err = buildIndex(f, labels, func(int) ([]graph.NodeID, error) {
		row, err = readRow(r, row)
		return row, err
	}); err != nil {
		return nil, nil, err
	}
	for vi, p := range f.idx.Pred {
		f.numEdges += len(p)
		if vi >= int(f.idx.NL) {
			f.numCrossing += len(p)
		}
	}
	return f, r.Rest(), nil
}

// readCount reads a u32 count of entries at least width bytes each,
// refusing one the remaining bytes cannot hold.
func readCount(r *wire.ByteReader, width int, what string) (int, error) {
	n, err := r.U32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(width) > uint64(r.Remaining()) {
		return 0, fmt.Errorf("partition: %s count %d exceeds the %d bytes left", what, n, r.Remaining())
	}
	return int(n), nil
}

// readAscending reads the u32 that follows prev in a strictly ascending
// list.
func readAscending(r *wire.ByteReader, prev []graph.NodeID, what string) (graph.NodeID, error) {
	x, err := r.U32()
	if err != nil {
		return 0, err
	}
	if len(prev) > 0 && x <= prev[len(prev)-1] {
		return 0, fmt.Errorf("partition: %s list is not strictly ascending at %d", what, x)
	}
	return x, nil
}

// readRow reads a count-prefixed, strictly ascending successor row into
// row's storage.
func readRow(r *wire.ByteReader, row []graph.NodeID) ([]graph.NodeID, error) {
	n, err := readCount(r, 4, "successor")
	if err != nil {
		return nil, err
	}
	row = row[:0]
	for range n {
		w, err := readAscending(r, row, "successor")
		if err != nil {
			return nil, err
		}
		row = append(row, w)
	}
	return row, nil
}

// CloneFragment deep-copies f through a codec round-trip. The copy
// shares nothing with the original — not even its index or the state
// filed on it — so it can be mutated independently: the re-hosting
// primitive for in-process failover, where a recovered site must start
// from the driver's committed state rather than the survivor's object.
func CloneFragment(f *Fragment) *Fragment {
	c, rest, err := DecodeFragment(AppendFragment(nil, f))
	if err != nil || len(rest) != 0 {
		panic("partition: fragment failed to round-trip its own codec")
	}
	return c
}

// FragmentationFromParts assembles a Fragmentation around fragments that
// were decoded from the wire (no driver graph available — G is nil).
// assign is the global owner directory; boundary statistics are
// recomputed from the fragments. Site servers use this to host their
// shard; note CurrentGraph and Overlay are unavailable without G.
func FragmentationFromParts(assign []int32, frags []*Fragment) *Fragmentation {
	fr := &Fragmentation{Assign: assign, Frags: frags}
	fr.RecountBoundary()
	return fr
}

// ApplyBatchLocal applies a validated update batch directly to every
// fragment of fr within one process — the driver-side replay a networked
// deployment runs so that its fragmentation metadata (boundary counts,
// re-split inputs) stays in lockstep with the daemons' resident
// fragments, which the distributed maintenance session mutates. It
// performs the same mutations as the update session — edge ops at the
// source's fragment, then net watcher fixes at each target's owner — and
// recounts boundary stats. Labels for insertion targets come from fr.G,
// owners from fr.Assign. Errors indicate a validation bug upstream.
func ApplyBatchLocal(fr *Fragmentation, dels, ins [][2]graph.NodeID) error {
	// Each crossing edit's target and whether its source's fragment held
	// it as virtual beforehand: the first record of a (fragment, target)
	// pair is its status before the batch, so that watcher notices
	// reflect the batch's NET effect, exactly like the session's.
	type target struct {
		frag int
		w    graph.NodeID
		was  bool
	}
	var targets []target
	source := func(e [2]graph.NodeID) *Fragment {
		f := fr.Frags[fr.Assign[e[0]]]
		if !f.IsLocal(e[1]) {
			targets = append(targets, target{f.ID, e[1], f.IsVirtual(e[1])})
		}
		return f
	}
	for _, e := range dels {
		if _, err := source(e).DeleteEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	for _, e := range ins {
		if _, err := source(e).InsertEdge(e[0], e[1], fr.G.Label(e[1])); err != nil {
			return err
		}
	}
	slices.SortStableFunc(targets, func(a, b target) int {
		return cmp.Or(cmp.Compare(a.frag, b.frag), cmp.Compare(a.w, b.w))
	})
	for i, t := range targets {
		if i > 0 && targets[i-1].frag == t.frag && targets[i-1].w == t.w {
			continue
		}
		owner := fr.Frags[fr.Assign[t.w]]
		switch now := fr.Frags[t.frag].IsVirtual(t.w); {
		case now && !t.was:
			owner.AddWatcher(t.w, t.frag)
		case t.was && !now:
			owner.RemoveWatcher(t.w, t.frag)
		}
	}
	fr.RecountBoundary()
	return nil
}
