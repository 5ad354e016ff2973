package dgpm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// --- fixtures ---

func fig1() (*pattern.Pattern, *graph.Graph, map[string]graph.NodeID, []int32) {
	d := graph.NewDict()
	q := pattern.MustParse(d, `
node YB YB
node YF YF
node F  F
node SP SP
edge YB YF
edge YB F
edge SP YF
edge YF F
edge F  SP
`)
	b := graph.NewBuilderDict(d)
	ids := map[string]graph.NodeID{}
	add := func(name, label string) { ids[name] = b.AddNode(label) }
	// Site S1: yb1, yf1, sp1, f1; S2: f2, f3, yb2, sp2, yf2, yf3; S3: f4, sp3, yb3.
	add("yb1", "YB")
	add("yf1", "YF")
	add("sp1", "SP")
	add("f1", "F")
	add("f2", "F")
	add("f3", "F")
	add("yb2", "YB")
	add("sp2", "SP")
	add("yf2", "YF")
	add("yf3", "YF")
	add("f4", "F")
	add("sp3", "SP")
	add("yb3", "YB")
	e := func(a, bn string) { b.AddEdge(ids[a], ids[bn]) }
	e("yf1", "f2")
	e("sp1", "yf2")
	e("sp1", "f2")
	e("f2", "sp1")
	e("yf2", "f2")
	e("f3", "sp2")
	e("sp2", "yf3")
	e("yf3", "f4")
	e("f4", "sp3")
	e("sp3", "yf1")
	e("yb2", "yf3")
	e("yb2", "f3")
	e("yb3", "yf1")
	e("yb3", "f4")
	e("yb1", "f1")
	e("f1", "f4")
	g := b.MustBuild()
	assign := make([]int32, g.NumNodes())
	site := map[string]int32{
		"yb1": 0, "yf1": 0, "sp1": 0, "f1": 0,
		"f2": 1, "f3": 1, "yb2": 1, "sp2": 1, "yf2": 1, "yf3": 1,
		"f4": 2, "sp3": 2, "yb3": 2,
	}
	for name, id := range ids {
		assign[id] = site[name]
	}
	return q, g, ids, assign
}

func mustPartition(t testing.TB, g *graph.Graph, assign []int32) *partition.Fragmentation {
	t.Helper()
	fr, err := partition.FromAssign(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	return fr
}

// --- engine unit tests ---

func TestEngineSingleFragmentEqualsCentralized(t *testing.T) {
	q, g, _, _ := fig1()
	fr := mustPartition(t, g, make([]int32, g.NumNodes()))
	eng := NewEngine(q, fr.Frags[0])
	want := simulation.HHK(q, g)
	got := simulation.NewMatch(q.NumNodes())
	for _, r := range eng.LocalMatches() {
		got.Sets[r.U] = append(got.Sets[r.U], graph.NodeID(r.V))
	}
	got.Sort()
	if !want.Equal(got.Canonical()) {
		t.Fatalf("engine=%v centralized=%v", got, want)
	}
	if len(eng.Drain()) != 0 {
		t.Fatal("single fragment has no in-nodes; nothing to ship")
	}
}

func TestEngineOptimismKeepsCrossFragmentCandidates(t *testing.T) {
	// Chain 0->1 split between two fragments; query A->B.
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nedge a b")
	b := graph.NewBuilderDict(d)
	v0 := b.AddNode("A")
	v1 := b.AddNode("B")
	b.AddEdge(v0, v1)
	g := b.MustBuild()
	fr := mustPartition(t, g, []int32{0, 1})
	// Fragment 0 sees virtual node v1 and must keep X(a,v0) alive.
	eng := NewEngine(q, fr.Frags[0])
	if !eng.AliveLocalVar(0, v0) {
		t.Fatal("optimistic evaluation must keep X(a,0) alive")
	}
	// Now the owner reports X(b,1) false: X(a,0) must die.
	eng.ApplyFalsifications([]wire.VarRef{{U: 1, V: uint32(v1)}})
	if eng.AliveLocalVar(0, v0) {
		t.Fatal("X(a,0) must die after its only witness is falsified")
	}
}

func TestEngineDrainReportsInNodeDeaths(t *testing.T) {
	// 0:A -> 1:B in frag 0, with 2:C -> 0 crossing from frag 1, so node 0
	// is an in-node of frag 0. Query: a:A -> b:Z (no Z nodes anywhere).
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b Z\nedge a b")
	b := graph.NewBuilderDict(d)
	v0 := b.AddNode("A")
	v1 := b.AddNode("B")
	v2 := b.AddNode("C")
	b.AddEdge(v0, v1)
	b.AddEdge(v2, v0)
	g := b.MustBuild()
	fr := mustPartition(t, g, []int32{0, 0, 1})
	eng := NewEngine(q, fr.Frags[0])
	out := eng.Drain()
	if len(out) != 1 || out[0] != (wire.VarRef{U: 0, V: uint32(v0)}) {
		t.Fatalf("Drain = %v, want the X(a,0) falsification", out)
	}
}

func TestEngineEvalsCounter(t *testing.T) {
	q, g, _, assign := fig1()
	fr := mustPartition(t, g, assign)
	eng := NewEngine(q, fr.Frags[0])
	if eng.Evals != 1 {
		t.Fatalf("Evals = %d after init", eng.Evals)
	}
	eng.ApplyFalsifications(nil)
	if eng.Evals != 2 {
		t.Fatalf("Evals = %d after batch", eng.Evals)
	}
}

// --- distributed correctness ---

func runVariants(t *testing.T, q *pattern.Pattern, g *graph.Graph, fr *partition.Fragmentation) {
	t.Helper()
	want := simulation.HHK(q, g)
	for name, cfg := range map[string]Config{
		"dGPM":        DefaultConfig(),
		"dGPM-nopush": {Incremental: true},
		"dGPMNOpt":    NOptConfig(),
		"push-only":   {Push: true, Theta: 0.2},
		"eager-push":  {Incremental: true, Push: true, Theta: 0},
	} {
		got, _ := run(q, fr, cfg)
		if !want.Equal(got) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
	}
}

func TestDGPMFig1AllVariants(t *testing.T) {
	q, g, ids, assign := fig1()
	fr := mustPartition(t, g, assign)
	runVariants(t, q, g, fr)
	got, stats := run(q, fr, DefaultConfig())
	if !got.Ok() {
		t.Fatal("Fig-1 graph must match")
	}
	// Example 2: f1 not a match of F (query node 2), yb1 not of YB (0).
	if got.Contains(2, ids["f1"]) || got.Contains(0, ids["yb1"]) {
		t.Fatalf("relation wrong: %v", got)
	}
	if stats.DataBytes == 0 && fr.Ef() > 0 {
		t.Log("note: no data shipped (all matches true everywhere)")
	}
}

func TestDGPMFig1EdgeRemoved(t *testing.T) {
	// Example 8: removing (f2,sp1) breaks the cycle; nothing matches
	// F/SP/YF/YB any more except via the other cycle… in fact the whole
	// cycle collapses and the query has no match at all.
	q, g0, ids, assign := fig1()
	b := graph.NewBuilderDict(g0.Dict())
	for v := 0; v < g0.NumNodes(); v++ {
		b.AddNodeLabel(g0.Label(graph.NodeID(v)))
	}
	g0.Edges(func(v, w graph.NodeID) bool {
		if !(v == ids["f2"] && w == ids["sp1"]) {
			b.AddEdge(v, w)
		}
		return true
	})
	g := b.MustBuild()
	fr := mustPartition(t, g, assign)
	want := simulation.HHK(q, g)
	got, stats := run(q, fr, DefaultConfig())
	if !want.Equal(got) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if stats.DataBytes == 0 {
		t.Fatal("falsifications must propagate across sites here")
	}
}

func TestDGPMFig2CycleAcrossAllSites(t *testing.T) {
	// The impossibility construction: 2n nodes in a cycle, one (A,B) pair
	// per fragment, Vf = all nodes have crossing edges. dGPM must still
	// compute the full match.
	d := graph.NewDict()
	q := pattern.MustParse(d, "node A A\nnode B B\nedge A B\nedge B A")
	for _, n := range []int{2, 5, 9} {
		b := graph.NewBuilderDict(d)
		assign := make([]int32, 0, 2*n)
		for i := 0; i < n; i++ {
			b.AddNode("A")
			b.AddNode("B")
			assign = append(assign, int32(i), int32(i))
		}
		for i := 0; i < n; i++ {
			b.AddEdge(graph.NodeID(2*i), graph.NodeID(2*i+1))
			b.AddEdge(graph.NodeID(2*i+1), graph.NodeID((2*i+2)%(2*n)))
		}
		g := b.MustBuild()
		fr := mustPartition(t, g, assign)
		want := simulation.HHK(q, g)
		got, _ := run(q, fr, DefaultConfig())
		if !want.Equal(got) {
			t.Fatalf("n=%d: got %v, want %v", n, got, want)
		}
		if !got.Ok() || got.NumPairs() != 2*n {
			t.Fatalf("n=%d: cycle must fully match, got %v", n, got)
		}
	}
}

func TestDGPMFig2BrokenChain(t *testing.T) {
	// Break the cycle: falsification must cascade backwards through every
	// site (this is the Theorem-1 witness: information crosses m sites).
	d := graph.NewDict()
	q := pattern.MustParse(d, "node A A\nnode B B\nedge A B\nedge B A")
	n := 8
	b := graph.NewBuilderDict(d)
	assign := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode("A")
		b.AddNode("B")
		assign = append(assign, int32(i), int32(i))
	}
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(2*i), graph.NodeID(2*i+1))
		if i < n-1 {
			b.AddEdge(graph.NodeID(2*i+1), graph.NodeID(2*i+2))
		}
	}
	g := b.MustBuild()
	fr := mustPartition(t, g, assign)
	got, stats := run(q, fr, DefaultConfig())
	if got.NumPairs() != 0 {
		t.Fatalf("broken chain must be empty, got %v", got)
	}
	// The falsification chain visits every fragment boundary: at least
	// n-1 data messages.
	if stats.DataMsgs < int64(n-1) {
		t.Fatalf("expected ≥%d falsification messages, got %d", n-1, stats.DataMsgs)
	}
}

func randomCase(r *rand.Rand) (*pattern.Pattern, *graph.Graph, *partition.Fragmentation) {
	d := graph.NewDict()
	labels := []string{"A", "B", "C"}
	nq := 1 + r.Intn(5)
	q := pattern.New(d)
	for i := 0; i < nq; i++ {
		q.AddNode(labels[r.Intn(len(labels))], "")
	}
	for i := 0; i < nq*2; i++ {
		q.MustAddEdge(pattern.QNode(r.Intn(nq)), pattern.QNode(r.Intn(nq)))
	}
	b := graph.NewBuilderDict(d)
	nv := 2 + r.Intn(40)
	for i := 0; i < nv; i++ {
		b.AddNode(labels[r.Intn(len(labels))])
	}
	for i := r.Intn(4 * nv); i > 0; i-- {
		b.AddEdge(graph.NodeID(r.Intn(nv)), graph.NodeID(r.Intn(nv)))
	}
	g := b.MustBuild()
	nf := 1 + r.Intn(5)
	assign := make([]int32, nv)
	for i := range assign {
		assign[i] = int32(r.Intn(nf))
	}
	fr, err := partition.Build(g, assign, nf)
	if err != nil {
		panic(err)
	}
	return q, g, fr
}

// The central distributed property test: every dGPM variant equals the
// centralized maximum simulation on random (graph, pattern, partition)
// triples.
func TestQuickDGPMEqualsCentralized(t *testing.T) {
	cfgs := []Config{DefaultConfig(), NOptConfig(), {Incremental: true}, {Incremental: true, Push: true, Theta: 0}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, g, fr := randomCase(r)
		want := simulation.HHK(q, g)
		for ci, cfg := range cfgs {
			got, _ := run(q, fr, cfg)
			if !want.Equal(got) {
				t.Logf("seed %d cfg %d: got %v want %v", seed, ci, got, want)
				return false
			}
		}
		return true
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// Data-shipment bound (Theorem 2): dGPM ships at most O(|Ef||Vq|)
// falsification entries. Each crossing edge can carry each query-node
// variable at most once, plus the 5-byte batch headers.
func TestQuickDataShipmentBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, _, fr := randomCase(r)
		_, stats := run(q, fr, Config{Incremental: true}) // pure dGPM protocol, no push
		boundEntries := int64(fr.Ef()*q.NumNodes() + 1)
		// 6 bytes per entry + ≤5 bytes header per message; messages ≤ entries.
		boundBytes := boundEntries*6 + stats.DataMsgs*5
		if stats.DataBytes > boundBytes {
			t.Logf("seed %d: DS=%d bytes > bound %d (Ef=%d, Vq=%d, msgs=%d)",
				seed, stats.DataBytes, boundBytes, fr.Ef(), q.NumNodes(), stats.DataMsgs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity/idempotence: applying the same falsification twice is a
// no-op.
func TestFalsificationIdempotent(t *testing.T) {
	q, g, _, assign := fig1()
	fr := mustPartition(t, g, assign)
	eng := NewEngine(q, fr.Frags[0])
	pairs := []wire.VarRef{{U: 2, V: uint32(fr.Frags[0].Virtual[0])}}
	eng.ApplyFalsifications(pairs)
	snap := eng.LocalMatches()
	eng.ApplyFalsifications(pairs)
	again := eng.LocalMatches()
	if len(snap) != len(again) {
		t.Fatal("re-applying a falsification changed the state")
	}
	_ = g
}

// --- push machinery ---

func TestExtractInstallRoundTrip(t *testing.T) {
	// Chain across three fragments: 0:A(f0) -> 1:B(f1) -> 2:C(f2) -> 3:D(f2).
	// Fragment f1's in-node is 1; extracting its subsystem must produce
	// X(b,1) = X(c,2) with leaf node 2 (query node c is not a leaf, so
	// X(c,2) is a genuine assumption, not a constant).
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nnode c C\nnode dd D\nedge a b\nedge b c\nedge c dd")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("B")
	b.AddNode("C")
	b.AddNode("D")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	fr := mustPartition(t, g, []int32{0, 1, 2, 2})
	eng1 := NewEngine(q, fr.Frags[1])
	eqs, leaves := eng1.ExtractSubsystem([]graph.NodeID{1})
	if len(eqs) != 1 {
		t.Fatalf("eqs = %+v", eqs)
	}
	if eqs[0].Target != (wire.VarRef{U: 1, V: 1}) {
		t.Fatalf("target = %+v", eqs[0].Target)
	}
	if len(eqs[0].Groups) != 1 || len(eqs[0].Groups[0]) != 1 || eqs[0].Groups[0][0] != (wire.VarRef{U: 2, V: 2}) {
		t.Fatalf("groups = %+v", eqs[0].Groups)
	}
	if len(leaves) != 1 || leaves[0] != 2 {
		t.Fatalf("leaves = %v", leaves)
	}
	// Install at fragment 0 and falsify the leaf: the installed equation
	// must fire and kill X(a,0) through the local counters.
	eng0 := NewEngine(q, fr.Frags[0])
	eng0.InstallEquations(eqs)
	if !eng0.AliveLocalVar(0, 0) {
		t.Fatal("X(a,0) should still be alive")
	}
	eng0.ApplyFalsifications([]wire.VarRef{{U: 2, V: 2}})
	if eng0.AliveLocalVar(0, 0) {
		t.Fatal("falsifying the pushed equation's leaf must cascade to X(a,0)")
	}
}

func TestExtractSkipsConstantTrue(t *testing.T) {
	// X(b,1) where query node b is a leaf: constant true, not extracted.
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nedge a b")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("B")
	b.AddNode("A") // third node to create crossing edge into node 1
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.MustBuild()
	fr := mustPartition(t, g, []int32{0, 1, 0})
	eng := NewEngine(q, fr.Frags[1])
	eqs, leaves := eng.ExtractSubsystem([]graph.NodeID{1})
	if len(eqs) != 0 || len(leaves) != 0 {
		t.Fatalf("constant-true vars must not be extracted: eqs=%v leaves=%v", eqs, leaves)
	}
}

func TestUnevaluatedCounts(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nedge a b")
	b := graph.NewBuilderDict(d)
	b.AddNode("A") // 0, frag 0, in-node? no.
	b.AddNode("A") // 1, frag 1: has crossing edge to 2; 1 is in-node via 0->1
	b.AddNode("B") // 2, frag 0: virtual at frag 1
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	fr := mustPartition(t, g, []int32{0, 1, 0})
	eng := NewEngine(q, fr.Frags[1])
	inV, virtV := eng.UnevaluatedCounts()
	// In-node 1: X(a,1) alive non-const -> 1. Virtual 2: X(b,2) is
	// const-true (b is a leaf) -> 0.
	if inV != 1 || virtV != 0 {
		t.Fatalf("inV=%d virtV=%d", inV, virtV)
	}
}

func TestDeadLocalVars(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b Z\nedge a b")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(1, 0)
	g := b.MustBuild()
	fr := mustPartition(t, g, []int32{0, 1})
	eng := NewEngine(q, fr.Frags[0])
	dead := eng.DeadLocalVars(0)
	// X(a,0) died (no Z successor); node 0's label A matches only query a.
	if len(dead) != 1 || dead[0] != (wire.VarRef{U: 0, V: 0}) {
		t.Fatalf("dead = %v", dead)
	}
	if eng.DeadLocalVars(99) != nil {
		t.Fatal("non-local node must return nil")
	}
}
