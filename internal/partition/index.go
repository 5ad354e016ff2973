package partition

// The fragment topology index: the dense, query-independent view of a
// fragment that every evaluation engine otherwise rebuilds from the
// Succ/Labels maps on each query. A resident deployment answers many
// queries against the same fragment, so the index is built once, cached
// on the Fragment, and shared read-only; any fragment mutation drops
// the cache. Callers that mutate adjacency during evaluation (standing
// maintenance sessions) must copy the Succ/Pred rows they touch — the
// index itself is immutable.
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
// the Succ row", which only hubs pay.

import (
	"dgs/internal/graph"
)

// Index is an immutable dense snapshot of a fragment's topology.
// Visible nodes are indexed 0..len(Vis)-1: the NL local nodes first,
// label-major, then the virtual nodes in Fragment order.
type Index struct {
	// Vis lists local then virtual node IDs; VisIdx inverts it.
	Vis    []graph.NodeID
	VisIdx map[graph.NodeID]int32
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

	// labelStart[l] is where label l's locals start; labelStart[l+1]
	// where they end.
	labelStart []int32
	// watchStart[li] .. watchStart[li+1] delimit local li's watchers in
	// watchers: the CSR form of InWatchers, addressed by local index.
	watchStart []int32
	watchers   []int32
}

// OutDegSat is the value at which an OutDeg cell stops counting.
const OutDegSat = 255

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

// Index returns the fragment's cached topology index, building it on
// first use. The returned value is shared and must be treated as
// read-only; it is dropped whenever the fragment mutates.
func (f *Fragment) Index() *Index {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	if f.idx == nil {
		f.idx = f.buildIndex()
	}
	return f.idx
}

// IndexCurrent reports whether ix is still the fragment's cached index —
// no mutation has dropped it since it was built. It never builds one.
func (f *Fragment) IndexCurrent(ix *Index) bool {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	return f.idx == ix
}

// invalidateIndex drops the cached topology index; every mutating
// Fragment method calls it.
func (f *Fragment) invalidateIndex() {
	f.idxMu.Lock()
	f.idx = nil
	f.idxMu.Unlock()
}

func (f *Fragment) buildIndex() *Index {
	nl := len(f.Local)
	nvis := nl + len(f.Virtual)
	ix := &Index{
		Vis:    make([]graph.NodeID, nvis),
		VisIdx: make(map[graph.NodeID]int32, nvis),
		NL:     int32(nl),
		Labels: make([]graph.Label, nvis),
		IsIn:   make([]bool, nl),
		Succ:   make([][]int32, nl),
		Pred:   make([][]int32, nvis),
		Virt:   make(map[graph.Label][]int32),
		OutDeg: make(map[graph.Label][]uint8),
		InOf:   make(map[graph.Label]int),
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
	for i, v := range ix.Vis {
		ix.VisIdx[v] = int32(i)
	}

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
			wi := ix.VisIdx[w]
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

	// In-nodes and their watcher rows.
	ix.In = make([]int32, len(f.InNodes))
	ix.watchStart = make([]int32, nl+1)
	for k, v := range f.InNodes {
		li := ix.VisIdx[v]
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

	for vi := nl; vi < nvis; vi++ {
		l := ix.Labels[vi]
		ix.Virt[l] = append(ix.Virt[l], int32(vi))
	}
	return ix
}
