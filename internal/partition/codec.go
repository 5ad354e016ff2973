package partition

// Fragment shipping: the deploy-time wire encoding a networked
// deployment uses to make a fragment resident at a remote site server
// (cmd/dgsd). The encoding carries exactly the state §2.2 defines —
// local nodes with labels and adjacency, virtual nodes with labels,
// in-nodes with their watcher annotations — and the decoder
// recomputes the derived counters (edge totals, crossing counts), so a
// decoded fragment is Validate-equivalent to the original and ready for
// live mutation (DeleteEdge/InsertEdge bookkeeping included).
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
	"fmt"
	"sort"

	"dgs/internal/graph"
	"dgs/internal/wire"
)

func appendU32(dst []byte, x uint32) []byte { return wire.AppendUint32(dst, x) }
func appendU16(dst []byte, x uint16) []byte { return wire.AppendUint16(dst, x) }

// AppendFragment appends f's wire encoding to dst.
func AppendFragment(dst []byte, f *Fragment) []byte {
	dst = appendU32(dst, uint32(f.ID))
	dst = appendU32(dst, uint32(len(f.Local)))
	for _, v := range f.Local {
		dst = appendU32(dst, v)
		dst = appendU16(dst, f.Labels[v])
	}
	dst = appendU32(dst, uint32(len(f.Virtual)))
	for _, v := range f.Virtual {
		dst = appendU32(dst, v)
		dst = appendU16(dst, f.Labels[v])
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
		succ := f.Succ[v]
		dst = appendU32(dst, uint32(len(succ)))
		for _, w := range succ {
			dst = appendU32(dst, w)
		}
	}
	return dst
}

// DecodeFragment parses one AppendFragment encoding from the front of b
// and returns the fragment plus the remaining bytes. It refuses a
// fragment without the structure the rest of the system relies on:
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
	f := &Fragment{
		ID:         int(id),
		Succ:       make(map[graph.NodeID][]graph.NodeID),
		Labels:     make(map[graph.NodeID]graph.Label),
		InWatchers: make(map[graph.NodeID][]int),
		crossCnt:   make(map[graph.NodeID]int),
	}
	// A local costs 6 bytes here and a 4-byte degree at the end.
	nl, err := readCount(r, 10, "local")
	if err != nil {
		return nil, nil, err
	}
	f.Local = make([]graph.NodeID, nl)
	for i := range f.Local {
		v, err := readAscending(r, f.Local[:i], "local")
		if err != nil {
			return nil, nil, err
		}
		l, err := r.U16()
		if err != nil {
			return nil, nil, err
		}
		f.Local[i], f.Labels[v] = v, l
	}
	nv, err := readCount(r, 6, "virtual")
	if err != nil {
		return nil, nil, err
	}
	f.Virtual = make([]graph.NodeID, nv)
	for i := range f.Virtual {
		v, err := readAscending(r, f.Virtual[:i], "virtual")
		if err != nil {
			return nil, nil, err
		}
		if f.IsLocal(v) {
			return nil, nil, fmt.Errorf("partition: fragment %d holds node %d as both local and virtual", id, v)
		}
		l, err := r.U16()
		if err != nil {
			return nil, nil, err
		}
		f.Virtual[i], f.Labels[v] = v, l
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
	for _, v := range f.Local {
		row, err := readRow(r)
		if err != nil {
			return nil, nil, err
		}
		if len(row) == 0 {
			continue
		}
		f.Succ[v] = row
		f.numEdges += len(row)
		for _, w := range row {
			if f.IsVirtual(w) {
				f.numCrossing++
				f.crossCnt[w]++
			} else if _, visible := f.Labels[w]; !visible {
				return nil, nil, fmt.Errorf("partition: fragment %d has edge (%d,%d) to a node it cannot see", id, v, w)
			}
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

// readRow reads a count-prefixed, strictly ascending successor row.
func readRow(r *wire.ByteReader) ([]graph.NodeID, error) {
	n, err := readCount(r, 4, "successor")
	if err != nil {
		return nil, err
	}
	row := make([]graph.NodeID, n)
	for i := range row {
		if row[i], err = readAscending(r, row[:i], "successor"); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// CloneFragment deep-copies f through a codec round-trip. The copy
// shares nothing with the original — in particular not the CSR
// adjacency slices Build lets pristine fragments alias — so it can be
// mutated independently: the re-hosting primitive for in-process
// failover, where a recovered site must start from the driver's
// committed state rather than the survivor's object.
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
	// Track pre-batch virtual status per (fragment, target) so watcher
	// notices reflect the batch's NET effect, exactly like the session.
	type fragTarget struct {
		frag int
		node graph.NodeID
	}
	wasVirtual := make(map[fragTarget]bool)
	record := func(fi int, w graph.NodeID) {
		f := fr.Frags[fi]
		if f.IsLocal(w) {
			return
		}
		k := fragTarget{fi, w}
		if _, seen := wasVirtual[k]; !seen {
			wasVirtual[k] = f.IsVirtual(w)
		}
	}
	for _, e := range dels {
		fi := int(fr.Assign[e[0]])
		record(fi, e[1])
		if _, err := fr.Frags[fi].DeleteEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	for _, e := range ins {
		fi := int(fr.Assign[e[0]])
		record(fi, e[1])
		if _, err := fr.Frags[fi].InsertEdge(e[0], e[1], fr.G.Label(e[1])); err != nil {
			return err
		}
	}
	keys := make([]fragTarget, 0, len(wasVirtual))
	for k := range wasVirtual {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].frag != keys[j].frag {
			return keys[i].frag < keys[j].frag
		}
		return keys[i].node < keys[j].node
	})
	for _, k := range keys {
		was := wasVirtual[k]
		now := fr.Frags[k.frag].IsVirtual(k.node)
		owner := fr.Frags[fr.Assign[k.node]]
		switch {
		case now && !was:
			owner.AddWatcher(k.node, k.frag)
		case was && !now:
			owner.RemoveWatcher(k.node, k.frag)
		}
	}
	fr.RecountBoundary()
	return nil
}
