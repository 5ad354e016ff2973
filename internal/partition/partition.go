//dgsvet:deterministic

// Package partition implements graph fragmentation (§2.2 of the paper).
//
// A fragmentation F of G = (V,E,L) is (F1,...,Fn) where each fragment
// Fi = (Vi ∪ Fi.O, Ei, Li):
//
//   - (V1,...,Vn) partitions V;
//   - Fi.O ("virtual nodes") are nodes v' in other fragments with a
//     crossing edge (v,v'), v ∈ Vi;
//   - Fi.I ("in-nodes") are nodes v' ∈ Vi with an incoming crossing edge;
//   - Ei holds the edges among Vi plus crossing edges from Vi to Fi.O.
//
// Vf = ∪ Fi.O is the set of all virtual nodes, Ef the set of all crossing
// edges. The partition-bounded guarantees of the paper are stated in
// |Vf|, |Ef|, |Fm| (largest fragment) and |F| (fragment count).
package partition

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"dgs/internal/graph"
)

// Fragment is one site's share of the graph. Node IDs are global; each
// fragment stores local adjacency restricted to its local nodes, including
// crossing edges to virtual nodes. A site must only touch its Fragment —
// the runtime never hands it the whole graph.
type Fragment struct {
	ID int

	// Local lists the fragment's own nodes Vi (sorted, global IDs).
	Local []graph.NodeID
	// Virtual lists Fi.O (sorted): other fragments' nodes that local
	// crossing edges point to. The fragment knows their labels and owners.
	Virtual []graph.NodeID
	// InNodes lists Fi.I (sorted): local nodes with an incoming crossing
	// edge; these are exactly the nodes other sites hold as virtual.
	InNodes []graph.NodeID

	// Succ maps a local node (global ID) to its out-neighbors (global
	// IDs), covering local→local and local→virtual (crossing) edges.
	Succ map[graph.NodeID][]graph.NodeID

	// Labels of every node the fragment can see (local + virtual).
	Labels map[graph.NodeID]graph.Label

	// Owner[v] gives the owning fragment of each virtual node. Crossing
	// edges carry IRIs/IDs in real systems [26,28]; the owner directory
	// is the stand-in for that routing metadata.
	Owner map[graph.NodeID]int

	// InWatchers[v] lists the fragment IDs that hold in-node v as a
	// virtual node — i.e. the sites to notify when v's status changes.
	// This is the annotation A_d(Sj, Si) of the local dependency graph.
	InWatchers map[graph.NodeID][]int

	// crossCnt[w] counts this fragment's crossing edges into virtual node
	// w; it decides when w enters/leaves Virtual under live updates.
	crossCnt map[graph.NodeID]int

	numEdges    int
	numCrossing int

	// idx caches the dense topology index (see Index). While one is
	// cached, the mutating methods log what they change against it, for
	// the next Index call to patch: the local sources whose Succ rows
	// changed (idxSrc, duplicates allowed, at most len(Local) long) and
	// whether the in-node watchers did (idxWatch). A change to the
	// virtual set, or a longer log, drops the cache instead.
	idxMu    sync.Mutex
	idx      *Index
	idxSrc   []graph.NodeID
	idxWatch bool
}

// NumNodes reports |Vi| (local nodes only).
func (f *Fragment) NumNodes() int { return len(f.Local) }

// NumEdges reports |Ei| including crossing edges.
func (f *Fragment) NumEdges() int { return f.numEdges }

// NumCrossing reports the number of crossing edges leaving this fragment.
func (f *Fragment) NumCrossing() int { return f.numCrossing }

// Size reports |Fi| = |Vi ∪ Fi.O| + |Ei|.
func (f *Fragment) Size() int { return len(f.Local) + len(f.Virtual) + f.numEdges }

// IsLocal reports whether v is one of the fragment's own nodes.
func (f *Fragment) IsLocal(v graph.NodeID) bool {
	_, ok := slices.BinarySearch(f.Local, v)
	return ok
}

// IsVirtual reports whether v is one of the fragment's virtual nodes.
func (f *Fragment) IsVirtual(v graph.NodeID) bool {
	_, ok := slices.BinarySearch(f.Virtual, v)
	return ok
}

// Fragmentation is a partition of a graph plus derived statistics.
// G is the graph as fragmented at Build time; a deployment that applies
// live updates records them in an overlay (see Overlay/CurrentGraph),
// while the fragments themselves are mutated in place at their sites.
type Fragmentation struct {
	G      *graph.Graph
	Assign []int32 // node -> fragment ID
	Frags  []*Fragment

	// Strategy names the registered partitioner that produced this
	// fragmentation ("custom" for explicit assignments, "" when built
	// directly through Build). BuildTime is the wall time of planning
	// plus Build, stamped by PartitionBy. Together they make every
	// downstream measurement attributable to its fragmentation.
	Strategy  string
	BuildTime time.Duration

	// ov tracks live edge updates against G; nil until the first
	// mutation. CurrentGraph materializes it for oracles and re-splits.
	ov *graph.Overlay

	vf int // |Vf| = |∪ Fi.O|
	ef int // |Ef| = number of crossing edges
}

// NumFragments reports |F|.
func (fr *Fragmentation) NumFragments() int { return len(fr.Frags) }

// Vf reports |Vf|, the number of distinct virtual nodes across fragments.
func (fr *Fragmentation) Vf() int { return fr.vf }

// Ef reports |Ef|, the total number of crossing edges.
func (fr *Fragmentation) Ef() int { return fr.ef }

// MaxFragmentSize reports |Fm|, the size of the largest fragment.
func (fr *Fragmentation) MaxFragmentSize() int {
	m := 0
	for _, f := range fr.Frags {
		if s := f.Size(); s > m {
			m = s
		}
	}
	return m
}

// VfRatio reports |Vf| / |V|, the knob Exp-1/2 vary (25%..50%).
func (fr *Fragmentation) VfRatio() float64 {
	if fr.G.NumNodes() == 0 {
		return 0
	}
	return float64(fr.vf) / float64(fr.G.NumNodes())
}

// EfRatio reports |Ef| / |E| of the current graph.
func (fr *Fragmentation) EfRatio() float64 {
	if fr.CurrentNumEdges() == 0 {
		return 0
	}
	return float64(fr.ef) / float64(fr.CurrentNumEdges())
}

func (fr *Fragmentation) String() string {
	return fmt.Sprintf("Fragmentation(|F|=%d, |Vf|=%d (%.1f%%), |Ef|=%d (%.1f%%), |Fm|=%d)",
		fr.NumFragments(), fr.vf, 100*fr.VfRatio(), fr.ef, 100*fr.EfRatio(), fr.MaxFragmentSize())
}

// Build constructs a Fragmentation from an assignment vector. assign[v]
// must be in [0, n). Fragments with no local nodes are allowed (they just
// sit idle), matching the paper's "multiple fragments on one site are one
// fragment" convention in reverse.
//
// Fragments are constructed concurrently by a worker pool (fragments
// are independent given the shared read-only graph and assignment), so
// a 256-site fragmentation of a large graph scales with cores; the
// output is byte-for-byte identical to a sequential build.
func Build(g *graph.Graph, assign []int32, n int) (*Fragmentation, error) {
	return buildWorkers(g, assign, n, runtime.GOMAXPROCS(0))
}

// watchPair records that fragment holder sees node w as virtual; the
// pair is routed to w's owner, which derives InNodes and InWatchers.
type watchPair struct {
	w      graph.NodeID
	holder int32
}

func buildWorkers(g *graph.Graph, assign []int32, n, workers int) (*Fragmentation, error) {
	if len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("partition: assign length %d != |V| %d", len(assign), g.NumNodes())
	}
	fr := &Fragmentation{G: g, Assign: assign}
	fr.Frags = make([]*Fragment, n)
	for i := 0; i < n; i++ {
		fr.Frags[i] = &Fragment{
			ID:         i,
			Succ:       make(map[graph.NodeID][]graph.NodeID),
			Labels:     make(map[graph.NodeID]graph.Label),
			Owner:      make(map[graph.NodeID]int),
			InWatchers: make(map[graph.NodeID][]int),
			crossCnt:   make(map[graph.NodeID]int),
		}
	}
	// Local node lists, in ascending ID order (so already sorted).
	for v := 0; v < g.NumNodes(); v++ {
		fi := assign[v]
		if fi < 0 || int(fi) >= n {
			return nil, fmt.Errorf("partition: node %d assigned to invalid fragment %d", v, fi)
		}
		fr.Frags[fi].Local = append(fr.Frags[fi].Local, graph.NodeID(v))
	}

	if workers > n {
		workers = n
	}
	if workers < 1 || g.NumNodes() < 2048 {
		workers = 1 // pool overhead dominates on small graphs
	}

	// Phase 1 — per-fragment, in parallel: adjacency, labels, crossing
	// counters and the Virtual set; emit (virtual node, holder) pairs
	// for phase 2. Workers only write their own fragment and slot.
	emitted := make([][]watchPair, n)
	runFragments(n, workers, func(fi int) {
		f := fr.Frags[fi]
		var out []watchPair
		for _, src := range f.Local {
			f.Labels[src] = g.Label(src)
			succ := g.Succ(src)
			if len(succ) == 0 {
				continue
			}
			f.Succ[src] = succ // CSR slice is immutable; safe to share
			f.numEdges += len(succ)
			for _, w := range succ {
				fj := int(assign[w])
				if fj == fi {
					continue
				}
				// (src, w) is a crossing edge: w is virtual in Fi, in-node in Fj.
				f.numCrossing++
				f.crossCnt[w]++
				if f.crossCnt[w] == 1 {
					f.Virtual = append(f.Virtual, w)
					f.Labels[w] = g.Label(w)
					f.Owner[w] = fj
					out = append(out, watchPair{w, int32(fi)})
				}
			}
		}
		sort.Slice(f.Virtual, func(i, j int) bool { return f.Virtual[i] < f.Virtual[j] })
		emitted[fi] = out
	})

	// Phase 2 — serial scatter of the O(Σ|Fi.O|) watch pairs to the
	// owning fragments' buckets.
	buckets := make([][]watchPair, n)
	for fi := 0; fi < n; fi++ {
		for _, p := range emitted[fi] {
			owner := assign[p.w]
			buckets[owner] = append(buckets[owner], p)
		}
	}

	// Phase 3 — per-owner, in parallel: sort each bucket to derive the
	// sorted InNodes set and per-node watcher lists.
	vfPer := make([]int, n)
	runFragments(n, workers, func(fj int) {
		f := fr.Frags[fj]
		b := buckets[fj]
		sort.Slice(b, func(i, j int) bool {
			if b[i].w != b[j].w {
				return b[i].w < b[j].w
			}
			return b[i].holder < b[j].holder
		})
		for i, p := range b {
			if i == 0 || p.w != b[i-1].w {
				f.InNodes = append(f.InNodes, p.w)
			}
			f.InWatchers[p.w] = append(f.InWatchers[p.w], int(p.holder))
		}
		vfPer[fj] = len(f.InNodes)
	})

	// In-node sets are disjoint across fragments (each node has one
	// owner), so |Vf| is their summed size.
	for fj := 0; fj < n; fj++ {
		fr.vf += vfPer[fj]
		fr.ef += fr.Frags[fj].numCrossing
	}
	return fr, nil
}

// runFragments invokes fn(fi) for every fragment index, fanning the
// indices out over a pool of workers. fn must only touch state owned by
// its fragment.
func runFragments(n, workers int, fn func(fi int)) {
	if workers <= 1 {
		for fi := 0; fi < n; fi++ {
			fn(fi)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fi := range work {
				fn(fi)
			}
		}()
	}
	for fi := 0; fi < n; fi++ {
		work <- fi
	}
	close(work)
	wg.Wait()
}

// Validate checks the structural invariants of §2.2; used in tests and
// after partition refinement.
func (fr *Fragmentation) Validate() error {
	seen := make([]bool, fr.G.NumNodes())
	for _, f := range fr.Frags {
		for _, v := range f.Local {
			if seen[v] {
				return fmt.Errorf("node %d in two fragments", v)
			}
			seen[v] = true
			if int(fr.Assign[v]) != f.ID {
				return fmt.Errorf("node %d assign mismatch", v)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("node %d in no fragment", v)
		}
	}
	// ∪ Fi.O == ∪ Fi.I as sets (paper remark).
	virt := map[graph.NodeID]bool{}
	ins := map[graph.NodeID]bool{}
	for _, f := range fr.Frags {
		for _, v := range f.Virtual {
			virt[v] = true
			if fr.Assign[v] == int32(f.ID) {
				return fmt.Errorf("fragment %d holds own node %d as virtual", f.ID, v)
			}
			if f.Owner[v] != int(fr.Assign[v]) {
				return fmt.Errorf("fragment %d has wrong owner for %d", f.ID, v)
			}
		}
		for _, v := range f.InNodes {
			ins[v] = true
			if fr.Assign[v] != int32(f.ID) {
				return fmt.Errorf("fragment %d lists foreign in-node %d", f.ID, v)
			}
		}
	}
	if len(virt) != len(ins) || len(virt) != fr.vf {
		return fmt.Errorf("|∪Fi.O|=%d |∪Fi.I|=%d vf=%d must all agree", len(virt), len(ins), fr.vf)
	}
	for v := range virt {
		if !ins[v] {
			return fmt.Errorf("virtual node %d is not an in-node anywhere", v)
		}
	}
	// Watcher symmetry: Fj.InWatchers[v] lists exactly the fragments that
	// hold v as virtual, and in-nodes are exactly the watched nodes.
	for _, f := range fr.Frags {
		for _, v := range f.Virtual {
			owner := fr.Frags[f.Owner[v]]
			found := false
			for _, w := range owner.InWatchers[v] {
				if w == f.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("fragment %d holds %d as virtual but is not a watcher at its owner", f.ID, v)
			}
		}
		if len(f.InWatchers) != len(f.InNodes) {
			return fmt.Errorf("fragment %d has %d watched nodes but %d in-nodes", f.ID, len(f.InWatchers), len(f.InNodes))
		}
		for v, ws := range f.InWatchers {
			if len(ws) == 0 {
				return fmt.Errorf("fragment %d has empty watcher list for %d", f.ID, v)
			}
			for _, w := range ws {
				if w < 0 || w >= len(fr.Frags) || !fr.Frags[w].IsVirtual(v) {
					return fmt.Errorf("fragment %d lists watcher %d for %d which does not hold it as virtual", f.ID, w, v)
				}
			}
		}
	}
	// Edge coverage: every edge of the current graph appears in exactly
	// its source's fragment.
	total := 0
	for _, f := range fr.Frags {
		crossing := 0
		crossPer := make(map[graph.NodeID]int)
		for v, succ := range f.Succ {
			if !f.IsLocal(v) {
				return fmt.Errorf("fragment %d stores adjacency of foreign node %d", f.ID, v)
			}
			total += len(succ)
			for _, w := range succ {
				if fr.Assign[w] != int32(f.ID) {
					crossing++
					crossPer[w]++
				}
			}
		}
		if crossing != f.numCrossing {
			return fmt.Errorf("fragment %d numCrossing %d != recount %d", f.ID, f.numCrossing, crossing)
		}
		if len(crossPer) != len(f.crossCnt) {
			return fmt.Errorf("fragment %d crossCnt tracks %d nodes, recount %d", f.ID, len(f.crossCnt), len(crossPer))
		}
		for w, n := range crossPer {
			if f.crossCnt[w] != n {
				return fmt.Errorf("fragment %d crossCnt[%d]=%d, recount %d", f.ID, w, f.crossCnt[w], n)
			}
		}
		if len(f.Virtual) != len(crossPer) {
			return fmt.Errorf("fragment %d holds %d virtual nodes, crossing edges reach %d", f.ID, len(f.Virtual), len(crossPer))
		}
	}
	if total != fr.CurrentNumEdges() {
		return fmt.Errorf("edge coverage %d != |E| %d", total, fr.CurrentNumEdges())
	}
	return nil
}
