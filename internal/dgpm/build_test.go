package dgpm

// The guard for candidate-driven engine construction: the build it
// replaced — dense counter rows filled by a scan of the fragment's whole
// adjacency, every predecessor's counter decremented dead or alive — is
// kept here as the reference, and every build must kill the same
// variables in the same order at a fraction of its allocation.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
	"dgs/internal/workload"
)

// scanEngine is what the scan build leaves behind, over its own
// numbering of the fragment.
type scanEngine struct {
	vis        []graph.NodeID // locals then virtuals, in Fragment order
	nl         int
	alive      [][]bool
	out        []wire.VarRef
	inV, virtV int
}

// scanBuild is NewEnginePlanned as it stood before counters were
// compacted: alive rows and cnt[e][li] over every local node, counters
// counted up from every adjacency entry of the fragment, kills
// decrementing every predecessor's counter. It shares no numbering with
// partition.Index: it numbers the fragment itself, in Fragment order
// (Local then Virtual), from Local, Virtual, InNodes and the index's
// rows and labels read by node ID.
func scanBuild(q *pattern.Pattern, frag *partition.Fragment) *scanEngine {
	ix := frag.Index()
	vis := append(append([]graph.NodeID(nil), frag.Local...), frag.Virtual...)
	visIdx := make(map[graph.NodeID]int32, len(vis))
	for i, v := range vis {
		visIdx[v] = int32(i)
	}
	nq, nl, nvis := q.NumNodes(), len(frag.Local), len(vis)
	isIn := make([]bool, nl)
	for _, v := range frag.InNodes {
		isIn[visIdx[v]] = true
	}
	succ := make([][]int32, nl)
	pred := make([][]int32, nvis)
	for li, v := range frag.Local {
		xi, _ := ix.Find(v)
		for _, xw := range ix.Succ[xi] {
			wi := visIdx[ix.Vis[xw]]
			succ[li] = append(succ[li], wi)
			pred[wi] = append(pred[wi], int32(li))
		}
	}
	var qedges []qEdge
	constTrue := make([]bool, nq)
	eOut, eIn := make([][]int32, nq), make([][]int32, nq)
	for u := 0; u < nq; u++ {
		for _, uc := range q.Succ(pattern.QNode(u)) {
			ei := int32(len(qedges))
			qedges = append(qedges, qEdge{pattern.QNode(u), uc})
			eOut[u] = append(eOut[u], ei)
			eIn[uc] = append(eIn[uc], ei)
		}
		constTrue[u] = len(q.Succ(pattern.QNode(u))) == 0
	}
	s := &scanEngine{vis: vis, nl: nl, alive: make([][]bool, nq)}
	for u := 0; u < nq; u++ {
		s.alive[u] = make([]bool, nvis)
		for i, v := range vis {
			if fragLabel(frag, v) != q.Label(pattern.QNode(u)) {
				continue
			}
			s.alive[u][i] = true
			switch {
			case constTrue[u]:
			case i >= nl:
				s.virtV++
			case isIn[i]:
				s.inV++
			}
		}
	}
	cnt := make([][]int32, len(qedges))
	for i := range cnt {
		cnt[i] = make([]int32, nl)
	}
	for li := 0; li < nl; li++ {
		for _, wi := range succ[li] {
			for ei, qe := range qedges {
				if q.Label(qe.child) == fragLabel(frag, vis[wi]) {
					cnt[ei][li]++
				}
			}
		}
	}
	var queue []visVar
	kill := func(u pattern.QNode, vi int32) {
		s.alive[u][vi] = false
		if int(vi) < nl {
			if isIn[vi] {
				s.out = append(s.out, wire.VarRef{U: uint16(u), V: uint32(vis[vi])})
				if !constTrue[u] {
					s.inV--
				}
			}
		} else if !constTrue[u] {
			s.virtV--
		}
		queue = append(queue, visVar{u, vi})
	}
	for u := range pattern.QNode(nq) {
		if constTrue[u] {
			continue
		}
		for li := int32(0); li < int32(nl); li++ {
			if !s.alive[u][li] {
				continue
			}
			for _, ei := range eOut[u] {
				if cnt[ei][li] == 0 {
					kill(u, li)
					break
				}
			}
		}
	}
	for len(queue) > 0 {
		kv := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ei := range eIn[kv.u] {
			up := qedges[ei].parent
			for _, lp := range pred[kv.vi] {
				cnt[ei][lp]--
				if cnt[ei][lp] == 0 && s.alive[up][lp] {
					kill(up, lp)
				}
			}
		}
	}
	return s
}

// fragSucc lists local v's successors and fragLabel gives the label of a
// node frag can see, both by node ID, read off frag's index.
func fragSucc(frag *partition.Fragment, v graph.NodeID) []graph.NodeID {
	ix := frag.Index()
	li, _ := ix.Find(v)
	row := make([]graph.NodeID, len(ix.Succ[li]))
	for j, wi := range ix.Succ[li] {
		row[j] = ix.Vis[wi]
	}
	return row
}

func fragLabel(frag *partition.Fragment, v graph.NodeID) graph.Label {
	ix := frag.Index()
	vi, _ := ix.Find(v)
	return ix.Labels[vi]
}

// localMatches lists the alive local variables, query node by query
// node, locals in Fragment order.
func (s *scanEngine) localMatches() []wire.VarRef {
	var out []wire.VarRef
	for u, row := range s.alive {
		for li, v := range s.vis[:s.nl] {
			if row[li] {
				out = append(out, wire.VarRef{U: uint16(u), V: uint32(v)})
			}
		}
	}
	return out
}

// aliveRefs lists every alive variable of a build as global references,
// sorted: a kill set independent of how the build numbered the fragment.
func aliveRefs(vis []graph.NodeID, alive [][]bool) []wire.VarRef {
	var out []wire.VarRef
	for u, row := range alive {
		for i, ok := range row {
			if ok {
				out = append(out, wire.VarRef{U: uint16(u), V: uint32(vis[i])})
			}
		}
	}
	slices.SortFunc(out, compareRefs)
	return out
}

// aliveRows is e's alive state as one dense row per query node over its
// numbering, every (u, vi) read through aliveAt.
func aliveRows(e *Engine) [][]bool {
	rows := make([][]bool, e.q.NumNodes())
	for u := range rows {
		rows[u] = make([]bool, len(e.vis))
		for vi := range rows[u] {
			rows[u][vi] = e.aliveAt(pattern.QNode(u), int32(vi))
		}
	}
	return rows
}

// counterOf is the counter of alive local variable X(u, vis[li]) on
// query edge ei, u the edge's parent.
func counterOf(e *Engine, ei int, li int32) int32 {
	u := e.qedges[ei].parent
	return e.cnt(ei)[e.slot(u, li-e.lo[u])]
}

// checkBuild holds one build against the scan build: kill set, Drain
// order, local matches and benefit tallies.
func checkBuild(t *testing.T, what string, q *pattern.Pattern, frag *partition.Fragment) {
	t.Helper()
	want := scanBuild(q, frag)
	e := NewEnginePlanned(q, frag, nil)
	if !reflect.DeepEqual(aliveRefs(e.vis, aliveRows(e)), aliveRefs(want.vis, want.alive)) {
		t.Fatalf("%s: kill set differs from the scan build", what)
	}
	if got := e.LocalMatches(); !reflect.DeepEqual(got, want.localMatches()) {
		t.Fatalf("%s: LocalMatches differ from the scan build", what)
	}
	if inV, virtV := e.UnevaluatedCounts(); inV != want.inV || virtV != want.virtV {
		t.Fatalf("%s: UnevaluatedCounts (%d,%d), scan build (%d,%d)", what, inV, virtV, want.inV, want.virtV)
	}
	if got := e.Drain(); !reflect.DeepEqual(got, want.out) {
		t.Fatalf("%s: Drain order differs from the scan build:\n got %v\nwant %v", what, got, want.out)
	}
	checkCounters(t, what, e)
}

// checkCounters asserts the counter invariant: for every alive,
// non-constant local variable X(u,v) and every out-edge (u,u'), the
// counter equals the number of v's alive successors for u', and is
// positive.
func checkCounters(t *testing.T, what string, e *Engine) {
	t.Helper()
	for u := range pattern.QNode(e.q.NumNodes()) {
		for li := e.lo[u]; li < e.hi[u]; li++ {
			if !e.aliveAt(u, li) {
				continue
			}
			for _, ei := range e.eOut[u] {
				n := int32(0)
				for _, wi := range e.succ[li] {
					if e.aliveAt(e.qedges[ei].child, wi) {
						n++
					}
				}
				if got := counterOf(e, int(ei), li); got != n || n == 0 {
					t.Fatalf("%s: alive X(%d,%d) edge %d: counter %d, %d alive successors", what, u, e.vis[li], ei, got, n)
				}
			}
		}
	}
}

func TestBuildMatchesScanBuild(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		q, _, fr := randomCase(rand.New(rand.NewSource(seed)))
		for _, frag := range fr.Frags {
			checkBuild(t, fmt.Sprintf("seed %d frag %d", seed, frag.ID), q, frag)
		}
	}
	fr, qs := localEight(t, 6_000, 30_000)
	for i, q := range qs {
		for _, frag := range fr.Frags {
			checkBuild(t, fmt.Sprintf("catalog %d frag %d", i, frag.ID), q, frag)
		}
	}
	// Under an update stream, the engines build from indexes patched (or,
	// when the virtual set moved, rebuilt) batch by batch.
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		q, g, fr := randomCase(r)
		stream := workload.Deletions(g, g.NumEdges()/2, r)
		inserted := make(map[[2]graph.NodeID]bool)
		for bi := 0; len(stream) > 0; bi++ {
			var dels, ins [][2]graph.NodeID
			for _, op := range stream[:min(2, len(stream))] {
				dels = append(dels, [2]graph.NodeID{op.V, op.W})
			}
			stream = stream[len(dels):]
			v, w := graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))
			if e := [2]graph.NodeID{v, w}; bi%3 == 0 && !g.HasEdge(v, w) && !inserted[e] {
				inserted[e] = true
				ins = append(ins, e)
			}
			if err := partition.ApplyBatchLocal(fr, dels, ins); err != nil {
				t.Fatal(err)
			}
			for _, frag := range fr.Frags {
				checkBuild(t, fmt.Sprintf("seed %d batch %d frag %d", seed, bi, frag.ID), q, frag)
			}
		}
	}
}

// A label that only virtual nodes carry has candidates but no counter
// cells; a pattern label the fragment has never seen has neither.
func TestBuildLabelOnlyVirtualOrAbsent(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nnode z Z\nedge a b\nedge b a\nedge b z\nedge z a")
	b := graph.NewBuilderDict(d)
	b.AddNode("A") // 0, site 0
	b.AddNode("A") // 1, site 0
	b.AddNode("B") // 2, site 1: B is virtual-only at site 0
	b.AddEdge(0, 2)
	b.AddEdge(2, 1)
	b.AddEdge(1, 0)
	fr := mustPartition(t, b.MustBuild(), []int32{0, 0, 1})
	for _, frag := range fr.Frags {
		checkBuild(t, fmt.Sprintf("frag %d", frag.ID), q, frag)
	}
}

// TestCountersExactForAlive drives engines through random falsification
// and deletion streams and holds the counter invariant after every step.
func TestCountersExactForAlive(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		q, _, fr := randomCase(r)
		for _, frag := range fr.Frags {
			what := fmt.Sprintf("seed %d frag %d", seed, frag.ID)
			e := NewEnginePlanned(q, frag, nil)
			checkCounters(t, what+" built", e)
			for round := 0; round < 3 && len(frag.Virtual) > 0; round++ {
				var batch []wire.VarRef
				for i := r.Intn(3); i >= 0; i-- {
					v := frag.Virtual[r.Intn(len(frag.Virtual))]
					batch = append(batch, wire.VarRef{U: uint16(r.Intn(q.NumNodes())), V: uint32(v)})
				}
				e.ApplyFalsifications(batch)
				checkCounters(t, what+" falsified", e)
			}
			var edges [][2]graph.NodeID
			for _, v := range frag.Local {
				for _, w := range fragSucc(frag, v) {
					edges = append(edges, [2]graph.NodeID{v, w})
				}
			}
			r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			for len(edges) > 0 {
				n := 1 + r.Intn(min(4, len(edges)))
				e.ApplyEdgeDeletions(edges[:n])
				edges = edges[n:]
				checkCounters(t, what+" edges deleted", e)
			}
		}
	}
}

// A hub past the successor-degree table's saturation point still gets an
// exact counter: its variable dies with its last witness, not its 255th.
func TestSaturatedHubCountsExactly(t *testing.T) {
	const fan = 300
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nedge a b")
	b := graph.NewBuilderDict(d)
	hub := b.AddNode("A")
	for i := 0; i < fan; i++ {
		b.AddEdge(hub, b.AddNode("B"))
	}
	fr := mustPartition(t, b.MustBuild(), make([]int32, fan+1))
	frag := fr.Frags[0]
	ix := frag.Index()
	h, _ := ix.Find(hub)
	if got := ix.OutDeg[q.Label(1)][h]; got != partition.OutDegSat {
		t.Fatalf("hub's OutDeg cell = %d, want saturated", got)
	}
	e := NewEnginePlanned(q, frag, nil)
	if got := counterOf(e, 0, h); got != fan {
		t.Fatalf("hub's counter = %d, want %d", got, fan)
	}
	for i := 1; i <= fan; i++ {
		e.ApplyEdgeDeletions([][2]graph.NodeID{{hub, graph.NodeID(i)}})
		if alive := e.AliveLocalVar(0, hub); alive != (i < fan) {
			t.Fatalf("after %d of %d deletions: X(a,hub) alive = %v", i, fan, alive)
		}
	}
}

// The dense rows must not come back unnoticed: a warm build allocates at
// most a third of what the scan build does.
func TestBuildAllocatesAThirdOfScanBuild(t *testing.T) {
	fr, qs := localEight(t, 30_000, 150_000)
	allocated := func(build func(i int, f *partition.Fragment)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range qs {
			for _, f := range fr.Frags {
				build(i, f)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	build := func(i int, f *partition.Fragment) { engineSink = NewEnginePlanned(qs[i], f, nil) }
	allocated(build) // warm: fragment indexes built, kill queues pooled
	// Best of three: under the race detector sync.Pool sheds a quarter of
	// what it is given, at random.
	got := min(allocated(build), allocated(build), allocated(build))
	scan := allocated(func(i int, f *partition.Fragment) { scanBuild(qs[i], f) })
	t.Logf("build %d B, scan build %d B per catalog pass", got, scan)
	if 3*got > scan {
		t.Fatalf("build allocated %d B, more than a third of the scan build's %d B", got, scan)
	}
}

// A standing engine's first deletion copies the adjacency it borrowed
// from the index into one backing array per table: a handful of
// allocations, not one per row.
func TestFirstDeletionCopiesRowsFlat(t *testing.T) {
	fr, qs := localEight(t, 6_000, 30_000)
	frag := fr.Frags[0]
	e := NewEnginePlanned(qs[0], frag, nil)
	v := slices.IndexFunc(frag.Local, func(v graph.NodeID) bool { return len(fragSucc(frag, v)) > 0 })
	del := [][2]graph.NodeID{{frag.Local[v], fragSucc(frag, frag.Local[v])[0]}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.ApplyEdgeDeletions(del)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > 32 {
		t.Fatalf("first deletion made %d allocations copying %d rows", allocs, len(e.succ)+len(e.pred))
	}
	if e.ix != nil {
		t.Fatal("the engine still borrows the index after a deletion")
	}
	checkCounters(t, "after the first deletion", e)
}

// localEight is the benchmark's `local-8` workload as a site sees it: the
// 1/10-scale web graph in 8 block fragments and the eight catalog
// patterns.
func localEight(tb testing.TB, nodes, edges int) (*partition.Fragmentation, []*pattern.Pattern) {
	tb.Helper()
	d := graph.NewDict()
	g := workload.WebDict(d, nodes, edges, 1)
	fr, err := partition.PartitionBy(g, "blocks", 8, partition.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var qs []*pattern.Pattern
	for i := 0; i < 8; i++ {
		qs = append(qs, workload.CyclicPattern(d, 4+i%2, 6+i%3, workload.Labels(4), int64(301+i)))
	}
	return fr, qs
}

// BenchmarkFragmentHeap reports the heap the eight `local-8` fragments
// retain once indexed, as a site holds them: MB-decoded after
// DecodeFragment and Index, MB-built after Build and Index. The graph and
// the owner directory are shared with the rest of the process and not
// counted.
func BenchmarkFragmentHeap(b *testing.B) {
	fr, _ := localEight(b, 300_000, 1_500_000)
	encs := make([][]byte, len(fr.Frags))
	for i, f := range fr.Frags {
		encs[i] = partition.AppendFragment(nil, f)
	}
	g, assign := fr.G, fr.Assign
	fr = nil // only the encodings stay
	retained := func(load func() any) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		held := load()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(held)
		return float64(after.HeapAlloc-before.HeapAlloc) / 1e6
	}
	var decoded, built float64
	for i := 0; i < b.N; i++ {
		decoded = retained(func() any {
			frags := make([]*partition.Fragment, len(encs))
			for j, enc := range encs {
				f, _, err := partition.DecodeFragment(enc)
				if err != nil {
					b.Fatal(err)
				}
				f.Index()
				frags[j] = f
			}
			return frags
		})
		built = retained(func() any {
			bf, err := partition.Build(g, assign, len(encs))
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range bf.Frags {
				f.Index()
			}
			return bf.Frags
		})
	}
	b.ReportMetric(decoded, "MB-decoded")
	b.ReportMetric(built, "MB-built")
}

var engineSink *Engine

// BenchmarkEngineBuild is engine construction's inner loop: one op is one
// query's worth of builds — a catalog pattern (round-robin) on each of the
// eight warm fragments — so ms/query and MB/query read against
// `dgpm.engine_build_ms_sum` on `local-8`.
func BenchmarkEngineBuild(b *testing.B) {
	fr, qs := localEight(b, 300_000, 1_500_000)
	for _, f := range fr.Frags {
		f.Index()
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fr.Frags {
			engineSink = NewEnginePlanned(qs[i%len(qs)], f, nil)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/query")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "MB/query")
}

// BenchmarkEnginePrepared is BenchmarkEngineBuild as a dGPM site pays it
// on a warm memo: one op restores a catalog pattern's engine on each of
// the eight fragments from the state its first build filed.
func BenchmarkEnginePrepared(b *testing.B) {
	fr, qs := localEight(b, 300_000, 1_500_000)
	keys := make([]string, len(qs))
	for i, q := range qs {
		keys[i] = keyOf(q)
		for _, f := range fr.Frags {
			prepare(q, f, keys[i], DefaultConfig())
		}
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(qs)
		for _, f := range fr.Frags {
			engineSink = prepare(qs[k], f, keys[k], DefaultConfig())
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/query")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "MB/query")
}

// BenchmarkEngineInbound is incremental lEval's inner loop on a warm
// memo: one op restores a catalog pattern's engine on each of the eight
// fragments and applies, with ApplyFalsifications, every falsification
// its owners could ever send it — each label-consistent X(u,v) with v
// virtual, u not a root of Q and (u,v) outside the maximum simulation —
// then drains the in-node kills for routing, so ms/query reads against
// the falsification handling inside `dgpm.site_busy_ms_sum` on `local-8`.
// The streams are computed off the clock from simulation.HHK's answer.
func BenchmarkEngineInbound(b *testing.B) {
	fr, qs, keys, streams := warmLocalEight(b)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(qs)
		for j, f := range fr.Frags {
			e := prepare(qs[k], f, keys[k], DefaultConfig())
			e.ApplyFalsifications(streams[k][j])
			refSink = e.Drain()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/query")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "MB/query")
}

var refSink []wire.VarRef

// warmLocalEight is localEight at full scale with every catalog
// pattern's snapshot filed on every fragment at the default config, the
// patterns' prepared-state keys, and the falsification streams of
// BenchmarkEngineInbound, by pattern and fragment.
func warmLocalEight(b *testing.B) (*partition.Fragmentation, []*pattern.Pattern, []string, [][][]wire.VarRef) {
	fr, qs := localEight(b, 300_000, 1_500_000)
	keys := make([]string, len(qs))
	streams := make([][][]wire.VarRef, len(qs))
	for i, q := range qs {
		keys[i] = keyOf(q)
		m := simulation.HHK(q, fr.G)
		streams[i] = make([][]wire.VarRef, len(fr.Frags))
		for j, f := range fr.Frags {
			prepare(q, f, keys[i], DefaultConfig())
			for _, v := range f.Virtual {
				for u := range q.NumNodes() {
					qu := pattern.QNode(u)
					if q.Label(qu) == fragLabel(f, v) && len(q.Pred(qu)) > 0 && !m.Contains(qu, v) {
						streams[i][j] = append(streams[i][j], wire.VarRef{U: uint16(u), V: uint32(v)})
					}
				}
			}
		}
	}
	return fr, qs, keys, streams
}

var (
	pushSink  []pushPlan
	matchSink *simulation.Match
)

// BenchmarkWarmSession is a warm dGPM query's site and assembly work
// without the transport: one op takes a catalog pattern (round-robin)
// through each of the eight fragments as its site does — restore the
// engine, take the start signal's push verdict at the default θ, absorb
// BenchmarkEngineInbound's stream, drain, list the local matches — and
// assembles the eight reports with cluster.MatchFromPairs, so ms/query
// reads against `cpu_s_per_op` on `local-8`.
func BenchmarkWarmSession(b *testing.B) {
	fr, qs, keys, streams := warmLocalEight(b)
	cfg := DefaultConfig()
	var pairs []wire.VarRef
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(qs)
		pairs = pairs[:0]
		for j, f := range fr.Frags {
			e := prepare(qs[k], f, keys[k], cfg)
			pushSink = startVerdict(e, cfg)
			e.ApplyFalsifications(streams[k][j])
			refSink = e.Drain()
			pairs = append(pairs, e.LocalMatches()...)
		}
		m, err := cluster.MatchFromPairs(qs[k].NumNodes(), len(fr.Assign), pairs)
		if err != nil {
			b.Fatal(err)
		}
		matchSink = m
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/query")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1e6, "MB/query")
}

var indexSink *partition.Index

// BenchmarkIndexBuild is the fragment index build the engines borrow
// from: one op decodes the eight fragments of BenchmarkEngineBuild and
// takes each one's Index. Decoding builds the index — the fragment holds
// its adjacency nowhere else — so the two are timed together, and
// ms/8frags reads against `partition.index_build_ms_sum` plus the decode
// half of `partition.fragment_codec_ms` on `local-8`.
func BenchmarkIndexBuild(b *testing.B) {
	fr, _ := localEight(b, 300_000, 1_500_000)
	encs := make([][]byte, len(fr.Frags))
	for i, f := range fr.Frags {
		encs[i] = partition.AppendFragment(nil, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, enc := range encs {
			f, _, err := partition.DecodeFragment(enc)
			if err != nil {
				b.Fatal(err)
			}
			indexSink = f.Index()
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/8frags")
}

// BenchmarkIndexPatch is the index upkeep of `maintain-8`'s update
// stream on its shape (the 60k/300k web graph in eight block fragments):
// one op applies an 8-deletion batch with ApplyBatchLocal and takes every
// fragment's Index, as the next query does. The batch's edges are put
// back off the clock, so every op starts from the same graph.
func BenchmarkIndexPatch(b *testing.B) {
	fr, _ := localEight(b, 60_000, 300_000)
	var edges [][2]graph.NodeID
	fr.G.Edges(func(v, w graph.NodeID) bool {
		edges = append(edges, [2]graph.NodeID{v, w})
		return true
	})
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	index := func() {
		for _, f := range fr.Frags {
			indexSink = f.Index()
		}
	}
	index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 8 * i % (len(edges) - 8)
		batch := edges[k : k+8]
		if err := partition.ApplyBatchLocal(fr, batch, nil); err != nil {
			b.Fatal(err)
		}
		index()
		b.StopTimer()
		if err := partition.ApplyBatchLocal(fr, nil, batch); err != nil {
			b.Fatal(err)
		}
		index()
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/batch")
}
