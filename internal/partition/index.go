package partition

// The fragment topology index: the dense, query-independent view of a
// fragment that every evaluation engine otherwise rebuilds from the
// Succ/Labels maps on each query. A resident deployment answers many
// queries against the same fragment, so the index is built once, cached
// on the Fragment, and shared read-only. An index is an immutable
// snapshot: a fragment mutation leaves it as it is and logs what it
// changed, and the next Index call derives the fragment's new index from
// the cached one copy-on-write (patch) — fresh Succ rows for the edited
// sources, fresh Pred rows for their targets, fresh OutDeg rows where a
// cell moved, every other row shared. Only a change to the virtual set,
// which would renumber the virtual nodes, builds afresh. A reader that
// holds an older index keeps a consistent view of the fragment as it
// was. Callers that mutate adjacency during evaluation (standing
// maintenance sessions) must copy the Succ/Pred rows they touch.
//
// The index is label-major: locals are numbered grouped by label (a
// stable counting sort, so node IDs stay ascending within a label), and
// the virtual nodes follow in Fragment order. Each label's local
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
// a patch shares, as the numbering carries over.
//
// An index is also the version that query-dependent state derived from
// the fragment is filed against (Prepared): a small LRU that every new
// index, built or patched, starts empty.

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"dgs/internal/graph"
)

// Index is an immutable dense snapshot of a fragment's topology.
// Visible nodes are indexed 0..len(Vis)-1: the NL local nodes first,
// label-major, then the virtual nodes in Fragment order.
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
	// Vis); Succ covers local sources only. Each table's rows share one
	// backing array, and Pred rows are ascending.
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
// the cached one while no mutation has been logged against it, else one
// derived from it by patch, or built afresh when none is cached (first
// use, or a mutation dropped the cache), which becomes the cached one.
// The returned value is shared and must be treated as read-only; later
// mutations leave it unchanged.
func (f *Fragment) Index() *Index {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	switch {
	case f.idx == nil:
		f.idx = f.buildIndex()
	case len(f.idxSrc) > 0 || f.idxWatch:
		f.idx = f.idx.patch(f, f.idxSrc, f.idxWatch)
	}
	f.idxSrc, f.idxWatch = f.idxSrc[:0], false
	return f.idx
}

// IndexCurrent reports whether ix still describes the fragment: it is
// the cached index and no mutation has been logged against it since. It
// never builds or patches one.
func (f *Fragment) IndexCurrent(ix *Index) bool {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	return f.idx == ix && len(f.idxSrc) == 0 && !f.idxWatch
}

// touchRow logs against the cached index, if one is cached, that local
// v's Succ row changed. A change to the virtual set drops the cache
// instead — the virtual nodes' numbering follows Fragment order and
// would shift — and so does a log longer than the fragment has locals.
func (f *Fragment) touchRow(v graph.NodeID, virtualChanged bool) {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	if f.idx == nil {
		return
	}
	if virtualChanged || len(f.idxSrc) == len(f.Local) {
		f.idx, f.idxSrc, f.idxWatch = nil, nil, false
		return
	}
	f.idxSrc = append(f.idxSrc, v)
}

// touchWatchers logs that the in-node watchers changed against the
// cached index, if one is cached.
func (f *Fragment) touchWatchers() {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	if f.idx != nil {
		f.idxWatch = true
	}
}

func (f *Fragment) buildIndex() *Index {
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

	// Number the locals label-major: one label lookup per node, then a
	// stable counting sort into Vis. Virtuals keep Fragment order.
	localLabels := make([]graph.Label, nl)
	maxLabel := graph.Label(0)
	for i, v := range f.Local {
		localLabels[i] = f.Labels[v]
		maxLabel = max(maxLabel, localLabels[i])
	}
	for j, v := range f.Virtual {
		l := f.Labels[v]
		ix.Vis[nl+j], ix.Labels[nl+j] = v, l
		maxLabel = max(maxLabel, l)
	}
	start := make([]int32, int(maxLabel)+2)
	for _, l := range localLabels {
		start[int(l)+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	ix.labelStart = start
	next := append([]int32(nil), start[:len(start)-1]...)
	for i, v := range f.Local {
		l := localLabels[i]
		li := next[l]
		next[l]++
		ix.Vis[li], ix.Labels[li] = v, l
	}
	ix.table = newVisTable(ix.Vis)

	// Succ: one pass over the fragment's adjacency in local order, which
	// also counts each visible node's predecessors and fills OutDeg. deg
	// dispatches to a label's OutDeg row by slice index: a map lookup per
	// adjacency entry measured +25–35% on the whole build.
	deg := make([][]uint8, int(maxLabel)+1)
	succOff := make([]int32, nl+1)
	predStart := make([]int32, nvis+1)
	succFlat := make([]int32, 0, f.numEdges)
	for li, v := range ix.Vis[:nl] {
		for _, w := range f.Succ[v] {
			wi, _ := ix.Find(w)
			succFlat = append(succFlat, wi)
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
		succOff[li+1] = int32(len(succFlat))
	}
	for li := range ix.Succ {
		if lo, hi := succOff[li], succOff[li+1]; hi > lo {
			ix.Succ[li] = succFlat[lo:hi:hi]
		}
	}

	// Pred: a counting pass. Sources are visited in ascending local
	// order, so every row comes out ascending.
	for vi := 1; vi <= nvis; vi++ {
		predStart[vi] += predStart[vi-1]
	}
	predFlat := make([]int32, len(succFlat))
	fill := append([]int32(nil), predStart[:nvis]...)
	for li, row := range ix.Succ {
		for _, wi := range row {
			predFlat[fill[wi]] = int32(li)
			fill[wi]++
		}
	}
	for vi := range ix.Pred {
		if lo, hi := predStart[vi], predStart[vi+1]; hi > lo {
			ix.Pred[vi] = predFlat[lo:hi:hi]
		}
	}

	fillWatchers(f, ix)
	for vi := nl; vi < nvis; vi++ {
		l := ix.Labels[vi]
		ix.Virt[l] = append(ix.Virt[l], int32(vi))
	}
	return ix
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

// predEdit is one change to a Pred row: local source li gained (add) or
// lost an edge into visible node wi.
type predEdit struct {
	wi, li int32
	add    bool
}

// patch derives the index of f's current state from o, the index of an
// earlier state with the same virtual set (see touchRow): srcs lists the
// local sources whose Succ rows changed since (duplicates allowed),
// watchers whether the in-node watchers did. The numbering and its Find
// table, labels, label ranges and Virt lists carry over unchanged. The
// result is what buildIndex would return, and it shares every row it does
// not change with o, which is left untouched — except the prepared state,
// which describes o alone and starts empty.
func (o *Index) patch(f *Fragment, srcs []graph.NodeID, watchers bool) *Index {
	ix := *o
	ix.prepared = new(preparedMemo)
	if watchers {
		fillWatchers(f, &ix)
	}
	if len(srcs) == 0 {
		return &ix
	}
	lis := make([]int32, len(srcs))
	for i, v := range srcs {
		lis[i], _ = o.Find(v)
	}
	slices.Sort(lis)
	lis = slices.Compact(lis)

	// Succ: a fresh row per dirty source, one backing array for all,
	// each row diffed against its old self into Pred edits. Rows follow
	// the fragment's (ascending-ID) row order, so the diff is a merge by
	// node ID.
	n := 0
	for _, li := range lis {
		n += len(f.Succ[o.Vis[li]])
	}
	flat := make([]int32, 0, n)
	ix.Succ = slices.Clone(o.Succ)
	var edits []predEdit
	for _, li := range lis {
		start := len(flat)
		for _, w := range f.Succ[o.Vis[li]] {
			wi, _ := o.Find(w)
			flat = append(flat, wi)
		}
		row := flat[start:len(flat):len(flat)]
		if len(row) == 0 {
			row = nil
		}
		old := o.Succ[li]
		ix.Succ[li] = row
		i, j := 0, 0
		for i < len(old) || j < len(row) {
			switch {
			case j == len(row) || i < len(old) && o.Vis[old[i]] < o.Vis[row[j]]:
				edits = append(edits, predEdit{old[i], li, false})
				i++
			case i == len(old) || o.Vis[row[j]] < o.Vis[old[i]]:
				edits = append(edits, predEdit{row[j], li, true})
				j++
			default:
				i, j = i+1, j+1
			}
		}
	}
	ix.OutDeg = o.patchOutDeg(ix.Succ, lis)
	if len(edits) == 0 {
		return &ix
	}

	// Pred: each target's row merges its old, ascending row with its
	// edits, sorted by source, so the row stays ascending.
	slices.SortFunc(edits, func(a, b predEdit) int {
		return cmp.Or(cmp.Compare(a.wi, b.wi), cmp.Compare(a.li, b.li))
	})
	n = 0
	for k, e := range edits {
		if k == 0 || e.wi != edits[k-1].wi {
			n += len(o.Pred[e.wi])
		}
		if e.add {
			n++
		} else {
			n--
		}
	}
	flat = make([]int32, 0, n)
	ix.Pred = slices.Clone(o.Pred)
	for k := 0; k < len(edits); {
		wi := edits[k].wi
		old := o.Pred[wi]
		start, i := len(flat), 0
		for ; k < len(edits) && edits[k].wi == wi; k++ {
			e := edits[k]
			for i < len(old) && old[i] < e.li {
				flat = append(flat, old[i])
				i++
			}
			if e.add {
				flat = append(flat, e.li)
			} else {
				i++ // old[i] == e.li
			}
		}
		flat = append(flat, old[i:]...)
		row := flat[start:len(flat):len(flat)]
		if len(row) == 0 {
			row = nil
		}
		ix.Pred[wi] = row
	}
	return &ix
}

// patchOutDeg returns o's OutDeg with the cells of the dirty sources lis
// recounted from their new Succ rows. A row is copied only when one of
// its cells changes, and the map only when a row does; a row left all
// zero is dropped, as buildIndex would not have made it.
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
