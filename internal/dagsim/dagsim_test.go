package dagsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
)

// fig5 reproduces Example 9/10: Q” (ranks FB=0, YB2=1, SP=2, YF=F=3,
// YB1=4) and a G” that does not match it, split across fragments.
func fig5(t *testing.T) (*pattern.Pattern, *graph.Graph, *partition.Fragmentation) {
	t.Helper()
	d := graph.NewDict()
	q := pattern.MustParse(d, `
node YB1 YB
node YF  YF
node F   F
node SP  SP
node YB2 YB
node FB  FB
edge YB1 YF
edge YB1 F
edge YF  SP
edge F   SP
edge SP  YB2
edge YB2 FB
`)
	b := graph.NewBuilderDict(d)
	ids := map[string]graph.NodeID{}
	add := func(n, l string) { ids[n] = b.AddNode(l) }
	// G'': yb4 -> {yf4..yf6, f5..f7} -> sp4..sp7 -> yb4? The paper's G''
	// lacks an FB node entirely, so nothing matches YB2, hence nothing
	// matches SP, YF, F, YB1 either.
	add("yb4", "YB")
	add("yf4", "YF")
	add("yf5", "YF")
	add("yf6", "YF")
	add("f5", "F")
	add("f6", "F")
	add("f7", "F")
	add("sp4", "SP")
	add("sp5", "SP")
	add("sp6", "SP")
	add("sp7", "SP")
	e := func(a, bn string) { b.AddEdge(ids[a], ids[bn]) }
	e("yb4", "yf4")
	e("yb4", "f5")
	e("yf4", "sp4")
	e("yf5", "sp5")
	e("yf6", "sp6")
	e("f5", "sp5")
	e("f6", "sp6")
	e("f7", "sp7")
	e("sp4", "yb4")
	g := b.MustBuild()
	// Fragments as in Fig. 5: F4={yb4}, F5={yf4,yf5,f5}, F6={yf6,f6,f7},
	// F7={sp4,sp5}, F8={sp6,sp7}.
	assign := make([]int32, g.NumNodes())
	frag := map[string]int32{
		"yb4": 0,
		"yf4": 1, "yf5": 1, "f5": 1,
		"yf6": 2, "f6": 2, "f7": 2,
		"sp4": 3, "sp5": 3,
		"sp6": 4, "sp7": 4,
	}
	for n, id := range ids {
		assign[id] = frag[n]
	}
	fr, err := partition.Build(g, assign, 5)
	if err != nil {
		t.Fatal(err)
	}
	return q, g, fr
}

func TestFig5NoMatchAndBatchedShipping(t *testing.T) {
	q, g, fr := fig5(t)
	want := simulation.HHK(q, g)
	if want.Ok() {
		t.Fatal("fixture error: G'' must not match Q''")
	}
	got, stats, err := run(q, fr, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPairs() != 0 {
		t.Fatalf("dGPMd found matches in a non-matching graph: %v", got)
	}
	// Rank batching: messages are bounded by (#site-pairs with shippable
	// ranks) — far fewer than one per falsified variable. dGPM on the
	// same input may send more, dGPMd must not exceed the static plan.
	if stats.DataMsgs == 0 {
		t.Fatal("expected rank batches to flow")
	}
	t.Logf("dGPMd: %d messages, %d bytes", stats.DataMsgs, stats.DataBytes)
}

func TestCyclicQOnDAGGIsEmpty(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nedge a b\nedge b a")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("B")
	b.AddEdge(0, 1)
	g := b.MustBuild()
	fr, err := partition.Build(g, []int32{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := run(q, fr, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPairs() != 0 {
		t.Fatal("cyclic Q on DAG G must be empty")
	}
	if stats.DataBytes != 0 || stats.DataMsgs != 0 {
		t.Fatal("the shortcut must ship nothing")
	}
	_ = g
}

func TestCyclicQCyclicGRejected(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nedge a a")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddEdge(0, 0)
	g := b.MustBuild()
	fr, err := partition.Build(g, []int32{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(q, fr, false); err == nil {
		t.Fatal("cyclic Q and cyclic G must be rejected")
	}
}

func randomDAGCase(r *rand.Rand) (*pattern.Pattern, *graph.Graph, *partition.Fragmentation) {
	d := graph.NewDict()
	labels := []string{"A", "B", "C"}
	nq := 1 + r.Intn(6)
	q := pattern.New(d)
	for i := 0; i < nq; i++ {
		q.AddNode(labels[r.Intn(len(labels))], "")
	}
	// DAG pattern: edges only from smaller to larger index.
	for i := 0; i < nq*2; i++ {
		a, b := r.Intn(nq), r.Intn(nq)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		q.MustAddEdge(pattern.QNode(a), pattern.QNode(b))
	}
	gb := graph.NewBuilderDict(d)
	nv := 2 + r.Intn(40)
	for i := 0; i < nv; i++ {
		gb.AddNode(labels[r.Intn(len(labels))])
	}
	// The data graph may be cyclic — Theorem 3 needs only Q to be a DAG.
	for i := r.Intn(4 * nv); i > 0; i-- {
		gb.AddEdge(graph.NodeID(r.Intn(nv)), graph.NodeID(r.Intn(nv)))
	}
	g := gb.MustBuild()
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

// Central property: dGPMd on DAG patterns equals centralized simulation
// and dGPM.
func TestQuickDGPMdEqualsCentralized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, g, fr := randomDAGCase(r)
		want := simulation.HHK(q, g)
		got, _, err := run(q, fr, false)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !want.Equal(got) {
			t.Logf("seed %d: got %v want %v", seed, got, want)
			return false
		}
		got2, err := runDGPM(q, fr)
		return err == nil && want.Equal(got2)
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// Message count bound: dGPMd sends exactly one batch per (site pair,
// shippable rank) — the static send plan — regardless of how many
// variables are falsified, and each site spends one round per rank it
// ships at: at most d waves (Theorem 3).
func TestQuickMessagePlanBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, _, fr := randomDAGCase(r)
		ri, ok := pattern.NewRankInfo(q)
		if !ok {
			return true
		}
		plan, waves := 0, 0
		for _, f := range fr.Frags {
			seen := map[[2]int]bool{}
			ranks := map[int]bool{}
			for _, v := range f.InNodes {
				for _, w := range f.InWatchers[v] {
					for _, rr := range ri.ShipRanks(fr.G.Label(v)) {
						k := [2]int{w, rr}
						if !seen[k] {
							seen[k] = true
							plan++
						}
						ranks[rr] = true
					}
				}
			}
			waves += len(ranks)
		}
		_, stats, err := run(q, fr, false)
		if err != nil {
			return false
		}
		if stats.DataMsgs != int64(plan) || stats.Rounds != int64(waves) {
			t.Logf("seed %d: %d messages in %d rounds, plan %d in %d waves", seed, stats.DataMsgs, stats.Rounds, plan, waves)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRankInfo(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nnode c C\nedge a b\nedge b c")
	ri, ok := pattern.NewRankInfo(q)
	if !ok {
		t.Fatal("chain is a DAG")
	}
	if ri.MaxRank != 2 {
		t.Fatalf("maxRank = %d", ri.MaxRank)
	}
	// c: rank 0 -> never shipped. b: rank 1, has parent -> shipped.
	// a: rank 2, no parent -> not shipped.
	la, _ := d.Lookup("A")
	lb, _ := d.Lookup("B")
	lc, _ := d.Lookup("C")
	if len(ri.ShipRanks(la)) != 0 {
		t.Fatalf("A ranks = %v", ri.ShipRanks(la))
	}
	if got := ri.ShipRanks(lb); len(got) != 1 || got[0] != 1 {
		t.Fatalf("B ranks = %v", got)
	}
	if len(ri.ShipRanks(lc)) != 0 {
		t.Fatalf("C ranks = %v", ri.ShipRanks(lc))
	}
}

func TestSingleNodePattern(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("B")
	g := b.MustBuild()
	fr, err := partition.Build(g, []int32{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := run(q, fr, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Ok() || len(got.Sets[0]) != 1 {
		t.Fatalf("got %v", got)
	}
	if stats.DataMsgs != 0 {
		t.Fatal("single-node pattern needs no messages")
	}
	_ = g
}
