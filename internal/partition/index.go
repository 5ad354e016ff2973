package partition

// The fragment topology index: the dense, query-independent form of a
// fragment's adjacency and labels, and the only place the fragment holds
// them. Build and DecodeFragment fill it; every engine reads it, shared
// read-only. An index is an immutable snapshot: a mutation logs its edit,
// and the next Index call folds the log in (patch). While the virtual set
// stands that is copy-on-write — fresh Succ rows for the edited sources,
// fresh Pred rows for their targets, fresh OutDeg rows where a cell
// moved, every other row shared; a virtual birth or death renumbers the
// virtual nodes, and the index is laid out again from the old one and
// the log. Either way the result is the index a fresh Build of the
// current graph gives the fragment. A reader that holds an older index
// keeps a consistent view of the fragment as it was. Callers that mutate
// adjacency during evaluation (standing maintenance sessions) must copy
// the Succ/Pred rows they touch.
//
// The index is label-major: locals are numbered grouped by label (a
// stable counting sort, so node IDs stay ascending within a label), and
// the virtual nodes follow in ascending order. Each label's local
// candidates are therefore one range [lo, hi) (Locals), a candidate's
// position in it is li − lo, and — since Pred rows are filled in
// ascending local order — each Pred row is grouped by predecessor label:
// an engine reads one block of it per query edge and skips the rest with
// integer compares. Node sets and labels never change under mutation, so
// a local's index is the same in every index of the fragment.
//
// Besides the adjacency the index records the query-independent facts an
// engine build needs per candidate, so that a build touches one label
// range per query node and never the whole fragment: how many of a local
// node's successors carry each label (OutDeg), and which sites watch each
// in-node (Watchers), so falsifications route without a map lookup.
// OutDeg is one byte per (successor label, local node) and saturates at
// OutDegSat: a saturated cell means "at least this many — recount from
// the Succ row", which only hubs pay. An inbound node ID resolves to its
// index without a map either, through an open-addressed table (Find) that
// a patch shares while the numbering carries over.
//
// An index is also the version that query-dependent state derived from
// the fragment is filed against (Prepared): a small LRU that every new
// index, built or patched, starts empty.

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"dgs/internal/graph"
)

// Index is an immutable dense snapshot of a fragment's topology.
// Visible nodes are indexed 0..len(Vis)-1: the NL local nodes first,
// label-major, then the virtual nodes in ascending order.
type Index struct {
	// Vis lists local then virtual node IDs; Find inverts it.
	Vis []graph.NodeID
	// NL is the number of local nodes (the local prefix of Vis).
	NL int32
	// IsIn marks the local indices that are in-nodes; In lists them in
	// InNodes order.
	IsIn []bool
	In   []int32
	// Succ[li] and Pred[vi] are the dense adjacency rows (indices into
	// Vis); Succ covers local sources only. A build lays each table's
	// rows in one backing array. Succ rows ascend by node ID, Pred rows
	// by index, and a virtual node's Pred row is the fragment's crossing
	// edges into it.
	Succ [][]int32
	Pred [][]int32
	// Labels[i] is the label of Vis[i].
	Labels []graph.Label
	// Virt lists, per label, the virtual nodes' indices, ascending.
	Virt map[graph.Label][]int32
	// OutDeg[l][li] is the number of local node li's successors labelled
	// l, saturating at OutDegSat. A label no local node has a successor
	// of has no row.
	OutDeg map[graph.Label][]uint8
	// InOf counts, per label, the in-node candidates (the benefit
	// function's per-label tally; len(Virt[l]) is the virtual one).
	InOf map[graph.Label]int

	// table inverts Vis (Find).
	table VisTable

	// labelStart[l] is where label l's locals start; labelStart[l+1]
	// where they end.
	labelStart []int32
	// watchStart[li] .. watchStart[li+1] delimit local li's watchers in
	// watchers: the CSR form of InWatchers, addressed by local index.
	watchStart []int32
	watchers   []int32

	// prepared holds the query-dependent state filed on this index (see
	// Prepared). buildIndex and patch give every index an empty one.
	prepared *preparedMemo
}

// OutDegSat is the value at which an OutDeg cell stops counting.
const OutDegSat = 255

// preparedCap is how many prepared states an index keeps; filing one more
// evicts the least recently used.
const preparedCap = 16

// preparedMemo is an index's LRU of prepared states, least recently used
// first. It is never longer than preparedCap, so a scan is the lookup.
type preparedMemo struct {
	mu      sync.Mutex
	entries []preparedEntry
}

type preparedEntry struct {
	key string
	val any
}

// Prepared returns the state filed on this index under key by Prepare, or
// nil, and marks a hit as the most recently used entry.
//
// Prepared state is whatever a caller derives from one fragment version
// and a key (a dGPM engine's state after its first local fixpoint, keyed
// by the query and plan) and wants to reuse on the next query with the
// same key. It lives and dies with the index it was filed on: a mutation
// moves the fragment to a new index with an empty memo, so the state of
// exactly the fragments a batch touched is dropped. The values are shared
// by every reader and must not be changed once filed.
func (ix *Index) Prepared(key string) any {
	m := ix.prepared
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.IndexFunc(m.entries, func(en preparedEntry) bool { return en.key == key })
	if i < 0 {
		return nil
	}
	en := m.entries[i]
	m.entries = append(slices.Delete(m.entries, i, i+1), en)
	return en.val
}

// Prepare files val under key on this index as its most recently used
// entry, replacing what key held and evicting the least recently used
// entry beyond preparedCap.
func (ix *Index) Prepare(key string, val any) {
	m := ix.prepared
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := slices.IndexFunc(m.entries, func(en preparedEntry) bool { return en.key == key }); i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	} else if len(m.entries) == preparedCap {
		m.entries = slices.Delete(m.entries, 0, 1)
	}
	m.entries = append(m.entries, preparedEntry{key, val})
}

// Find returns the index of node v in Vis, and false when the fragment
// cannot see v.
func (ix *Index) Find(v graph.NodeID) (int32, bool) { return ix.table.Find(v) }

// Table returns the table Find reads, for a holder that must not keep
// the index itself alive.
func (ix *Index) Table() VisTable { return ix.table }

// VisTable maps the visible node IDs of one index to their indices in its
// Vis. It is open-addressed: a power-of-two slot array at most half full,
// each slot v<<32 | (index+1) and 0 when empty, probed linearly from a
// Fibonacci hash of v. Storing only what is there, it costs 16–32 B per
// visible node where a dense array over node IDs would cost 4 B per node
// of the whole graph, in every fragment; and a probe is one multiply and,
// at this load, usually one cache line, where a map hashes and indirects.
// A table is immutable once built and safe to share.
type VisTable struct {
	slots []uint64
	shift uint8 // 64 − log2(len(slots)): the hash keeps the top bits
}

// fibHash is 2^64 divided by the golden ratio, rounded to odd.
const fibHash = 0x9e3779b97f4a7c15

// newVisTable indexes vis, whose IDs are distinct.
func newVisTable(vis []graph.NodeID) VisTable {
	n := 2
	for n < 2*len(vis) {
		n <<= 1
	}
	t := VisTable{slots: make([]uint64, n), shift: uint8(64 - bits.TrailingZeros(uint(n)))}
	mask := uint64(n - 1)
	for i, v := range vis {
		j := t.home(v)
		for t.slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = uint64(v)<<32 | uint64(i+1)
	}
	return t
}

// home is the slot v's probe starts at.
func (t VisTable) home(v graph.NodeID) uint64 { return uint64(v) * fibHash >> t.shift }

// Find returns v's index, and false when v is not in the table.
func (t VisTable) Find(v graph.NodeID) (int32, bool) {
	mask := uint64(len(t.slots) - 1)
	for j := t.home(v); ; j = (j + 1) & mask {
		s := t.slots[j]
		if s == 0 {
			return 0, false
		}
		if graph.NodeID(s>>32) == v {
			return int32(uint32(s)) - 1, true
		}
	}
}

// Locals returns the local index range [lo, hi) of the nodes labelled l;
// it is empty when no local node carries l.
func (ix *Index) Locals(l graph.Label) (lo, hi int32) {
	if int(l)+1 >= len(ix.labelStart) {
		return 0, 0
	}
	return ix.labelStart[l], ix.labelStart[int(l)+1]
}

// Watchers lists the sites that hold local li as a virtual node
// (InWatchers, ascending); it is empty unless li is an in-node.
func (ix *Index) Watchers(li int32) []int32 {
	return ix.watchers[ix.watchStart[li]:ix.watchStart[li+1]]
}

// Index returns the fragment's topology index as of its current state:
// the current one, after folding in the edits logged since it was made
// (see patch). The returned value is shared and must be treated as
// read-only; later mutations leave it unchanged.
func (f *Fragment) Index() *Index {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	f.fold()
	return f.idx
}

// IndexCurrent reports whether ix still describes the fragment: it is
// the current index and no mutation has been logged against it since. It
// never folds the log.
func (f *Fragment) IndexCurrent(ix *Index) bool {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	return f.idx == ix && len(f.edits) == 0 && !f.idxWatch
}

// fold makes the index describe the fragment's current state, patching
// in the logged edits; the caller holds idxMu.
func (f *Fragment) fold() {
	if len(f.edits) > 0 || f.idxWatch {
		f.idx = f.idx.patch(f, f.edits, f.idxWatch)
		f.edits, f.idxWatch = f.edits[:0], false
	}
}

// buildIndex indexes a fragment with f's node lists and in-node
// watchers afresh. labels gives the label of each local node, then of
// each virtual one, in Local and Virtual order; row(i) lists Local[i]'s
// successors by node ID, ascending, and is called in Local order. A
// successor f cannot see is refused. f.numEdges, when known, sizes the
// Succ rows' one backing array.
func buildIndex(f *Fragment, labels []graph.Label, row func(i int) ([]graph.NodeID, error)) (*Index, error) {
	nl := len(f.Local)
	nvis := nl + len(f.Virtual)
	ix := &Index{
		Vis:    make([]graph.NodeID, nvis),
		NL:     int32(nl),
		Labels: make([]graph.Label, nvis),
		Succ:   make([][]int32, nl),
		Pred:   make([][]int32, nvis),
		Virt:   make(map[graph.Label][]int32),
		OutDeg: make(map[graph.Label][]uint8),

		prepared: new(preparedMemo),
	}

	// Number the locals label-major: a stable counting sort into Vis.
	// Virtuals follow in ascending order.
	copy(ix.Vis[nl:], f.Virtual)
	copy(ix.Labels[nl:], labels[nl:])
	maxLabel := graph.Label(0)
	for _, l := range labels {
		maxLabel = max(maxLabel, l)
	}
	start := make([]int32, int(maxLabel)+2)
	for _, l := range labels[:nl] {
		start[int(l)+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	ix.labelStart = start
	next := slices.Clone(start[:len(start)-1])
	rank := make([]int32, nl) // Local[i]'s local index
	for i, v := range f.Local {
		l := labels[i]
		rank[i] = next[l]
		next[l]++
		ix.Vis[rank[i]], ix.Labels[rank[i]] = v, l
	}
	ix.table = newVisTable(ix.Vis)
	for vi := nl; vi < nvis; vi++ {
		l := ix.Labels[vi]
		ix.Virt[l] = append(ix.Virt[l], int32(vi))
	}

	// Succ: the rows in Local order, into one backing array, which is
	// trimmed when it had to grow.
	flat := make([]int32, 0, f.numEdges)
	off := make([]int32, nl+1)
	for i, v := range f.Local {
		succ, err := row(i)
		if err != nil {
			return nil, err
		}
		for _, w := range succ {
			wi, visible := ix.Find(w)
			if !visible {
				return nil, fmt.Errorf("partition: fragment %d has edge (%d,%d) to a node it cannot see", f.ID, v, w)
			}
			flat = append(flat, wi)
		}
		off[i+1] = int32(len(flat))
	}
	if cap(flat) > len(flat) {
		flat = slices.Clone(flat)
	}
	for i, li := range rank {
		ix.Succ[li] = clipRow(flat[off[i]:off[i+1]])
	}

	// One pass over the rows in local order counts each visible node's
	// predecessors and fills OutDeg. deg dispatches to a label's OutDeg
	// row by slice index: a map lookup per adjacency entry measured
	// +25–35% on the whole build.
	deg := make([][]uint8, len(start)-1)
	predStart := make([]int32, nvis+1)
	for li, row := range ix.Succ {
		for _, wi := range row {
			predStart[wi+1]++
			l := ix.Labels[wi]
			d := deg[l]
			if d == nil {
				d = make([]uint8, nl)
				deg[l], ix.OutDeg[l] = d, d
			}
			if d[li] < OutDegSat {
				d[li]++
			}
		}
	}

	// Pred: a counting pass. Sources are visited in ascending local
	// order, so every row comes out ascending.
	for vi := 1; vi <= nvis; vi++ {
		predStart[vi] += predStart[vi-1]
	}
	predFlat := make([]int32, len(flat))
	fill := slices.Clone(predStart[:nvis])
	for li, row := range ix.Succ {
		for _, wi := range row {
			predFlat[fill[wi]] = int32(li)
			fill[wi]++
		}
	}
	for vi := range ix.Pred {
		ix.Pred[vi] = clipRow(predFlat[predStart[vi]:predStart[vi+1]])
	}

	fillWatchers(f, ix)
	return ix, nil
}

// clipRow returns row capped at its length, or nil when it is empty.
func clipRow(row []int32) []int32 {
	if len(row) == 0 {
		return nil
	}
	return row[:len(row):len(row)]
}

// fillWatchers sets ix's in-node fields — In, IsIn, InOf and the watcher
// rows — from f's InNodes and InWatchers, into fresh storage.
func fillWatchers(f *Fragment, ix *Index) {
	nl := int(ix.NL)
	ix.In = make([]int32, len(f.InNodes))
	ix.IsIn = make([]bool, nl)
	ix.InOf = make(map[graph.Label]int)
	ix.watchStart = make([]int32, nl+1)
	for k, v := range f.InNodes {
		li, _ := ix.Find(v)
		ix.In[k] = li
		ix.IsIn[li] = true
		ix.InOf[ix.Labels[li]]++
		ix.watchStart[li+1] = int32(len(f.InWatchers[v]))
	}
	for li := 1; li <= nl; li++ {
		ix.watchStart[li] += ix.watchStart[li-1]
	}
	ix.watchers = make([]int32, ix.watchStart[nl])
	for k, v := range f.InNodes {
		row := ix.watchers[ix.watchStart[ix.In[k]]:]
		for j, w := range f.InWatchers[v] {
			row[j] = int32(w)
		}
	}
}

// editedRow appends to dst the successors of local li in o, by node ID,
// with es — edits of its source, in log order — applied.
func (o *Index) editedRow(dst []graph.NodeID, li int32, es []edgeEdit) []graph.NodeID {
	for _, wi := range o.Succ[li] {
		dst = append(dst, o.Vis[wi])
	}
	for _, e := range es {
		dst = editSorted(dst, e.w, e.add)
	}
	return dst
}

// patch derives the index of f's current state from o, the index of an
// earlier state: edits lists the edge edits made since (oldest first),
// watchers whether the in-node watchers changed. The result is what a
// fresh Build of the current graph gives the fragment. While the virtual
// set is o's, the numbering and its Find table, labels, label ranges and
// Virt lists carry over, and the result shares every row it does not
// change with o, and a virtual node born and retired since o, which has
// no row there, is passed over, its edits cancelling out; otherwise the
// virtual nodes are numbered afresh, and the index is built again from
// o's rows and labels and the edits. o is left untouched, and the
// result's prepared state starts empty.
func (o *Index) patch(f *Fragment, edits []edgeEdit, watchers bool) *Index {
	// The edits grouped by source, in log order within one.
	bySrc := slices.Clone(edits)
	slices.SortStableFunc(bySrc, func(a, b edgeEdit) int { return cmp.Compare(a.v, b.v) })
	if !slices.Equal(o.Vis[o.NL:], f.Virtual) {
		return o.rebuild(f, bySrc, edits)
	}
	ix := *o
	ix.prepared = new(preparedMemo)
	if watchers {
		fillWatchers(f, &ix)
	}
	if len(edits) == 0 {
		return &ix
	}

	// A fresh Succ row per edited source, and the edits applied in log
	// order to their targets' Pred rows, each copied on its first edit.
	ix.Succ = slices.Clone(o.Succ)
	ix.Pred = slices.Clone(o.Pred)
	copied := make(map[int32]bool)
	var lis []int32
	var ids []graph.NodeID
	for len(bySrc) > 0 {
		end := 1
		for end < len(bySrc) && bySrc[end].v == bySrc[0].v {
			end++
		}
		li, _ := o.Find(bySrc[0].v)
		lis = append(lis, li)
		ids = o.editedRow(ids[:0], li, bySrc[:end])
		row := make([]int32, len(ids))
		for k, w := range ids {
			row[k], _ = o.Find(w)
		}
		ix.Succ[li] = clipRow(row)
		for _, e := range bySrc[:end] {
			wi, ok := o.Find(e.w)
			if !ok { // born and retired since o: its edits cancel out
				continue
			}
			pred := ix.Pred[wi]
			if !copied[wi] {
				pred, copied[wi] = slices.Clone(pred), true
			}
			ix.Pred[wi] = clipRow(editSorted(pred, li, e.add))
		}
		bySrc = bySrc[end:]
	}
	ix.OutDeg = o.patchOutDeg(ix.Succ, lis)
	return &ix
}

// rebuild builds the index of f's current state afresh from o and the
// log — bySrc, the edits grouped by source (see patch), and edits, whose
// insertions carry the labels of newborn virtual nodes — numbering the
// virtual nodes anew.
func (o *Index) rebuild(f *Fragment, bySrc, edits []edgeEdit) *Index {
	labels := make([]graph.Label, 0, len(f.Local)+len(f.Virtual))
	for _, v := range slices.Concat(f.Local, f.Virtual) {
		if vi, ok := o.Find(v); ok {
			labels = append(labels, o.Labels[vi])
		} else { // a newborn: its label came with its insertion
			labels = append(labels, edits[slices.IndexFunc(edits, func(e edgeEdit) bool { return e.add && e.w == v })].l)
		}
	}
	var ids []graph.NodeID
	ix, _ := buildIndex(f, labels, func(i int) ([]graph.NodeID, error) {
		end := 0
		for end < len(bySrc) && bySrc[end].v == f.Local[i] {
			end++
		}
		li, _ := o.Find(f.Local[i])
		ids = o.editedRow(ids[:0], li, bySrc[:end])
		bySrc = bySrc[end:]
		return ids, nil
	})
	return ix
}

// patchOutDeg returns o's OutDeg with the cells of the edited sources lis
// recounted from their new Succ rows. A row is copied only when one of
// its cells changes, and the map only when a row does; a row left all
// zero is dropped, as a fresh build would not have made it.
func (o *Index) patchOutDeg(succ [][]int32, lis []int32) map[graph.Label][]uint8 {
	deg := o.OutDeg
	var copied map[graph.Label]bool         // copied row → one of its cells fell to zero
	cnt := make([]int, len(o.labelStart)-1) // one slot per label the index knows
	for _, li := range lis {
		row := succ[li]
		for _, wi := range row {
			cnt[o.Labels[wi]]++
		}
		// Every label the source had or has a successor of.
		for _, r := range [2][]int32{o.Succ[li], row} {
			for _, wi := range r {
				l := o.Labels[wi]
				c := uint8(min(cnt[l], OutDegSat))
				if d := deg[l]; d != nil && d[li] == c {
					continue
				}
				if copied == nil {
					deg, copied = maps.Clone(o.OutDeg), make(map[graph.Label]bool)
				}
				if _, ok := copied[l]; !ok {
					d := make([]uint8, o.NL)
					copy(d, deg[l])
					deg[l] = d
				}
				deg[l][li] = c
				copied[l] = copied[l] || c == 0
			}
		}
		for _, wi := range row {
			cnt[o.Labels[wi]] = 0
		}
	}
	for l, zeroed := range copied {
		if zeroed && !slices.ContainsFunc(deg[l], func(c uint8) bool { return c != 0 }) {
			delete(deg, l)
		}
	}
	return deg
}
