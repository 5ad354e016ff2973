package treesim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
)

// randomTree builds a rooted labeled tree with n nodes; parent of node i
// is a random node < i, so IDs are topologically ordered.
func randomTree(r *rand.Rand, d *graph.Dict, n int, labels []string) *graph.Graph {
	b := graph.NewBuilderDict(d)
	for i := 0; i < n; i++ {
		b.AddNode(labels[r.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(r.Intn(i)), graph.NodeID(i))
	}
	return b.MustBuild()
}

func randomTreeCase(r *rand.Rand) (*pattern.Pattern, *graph.Graph, *partition.Fragmentation) {
	d := graph.NewDict()
	labels := []string{"A", "B", "C"}
	nq := 1 + r.Intn(5)
	q := pattern.New(d)
	for i := 0; i < nq; i++ {
		q.AddNode(labels[r.Intn(len(labels))], "")
	}
	for i := 0; i < nq*2; i++ {
		a, b := r.Intn(nq), r.Intn(nq)
		if a == b {
			continue
		}
		q.MustAddEdge(pattern.QNode(min(a, b)), pattern.QNode(max(a, b)))
	}
	g := randomTree(r, d, 2+r.Intn(60), labels)
	nf := 1 + r.Intn(6)
	fr, err := partition.ConnectedTree(g, nf)
	if err != nil {
		panic(err)
	}
	return q, g, fr
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestTreeChainAcrossFragments(t *testing.T) {
	// Path A->B->C->D split into 4 single-node fragments; query A->B->C->D.
	d := graph.NewDict()
	q := pattern.MustParse(d, `
node a A
node b B
node c C
node dd D
edge a b
edge b c
edge c dd
`)
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("B")
	b.AddNode("C")
	b.AddNode("D")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	fr, err := partition.FromAssign(g, []int32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := simulation.HHK(q, g)
	got, stats, err := run(q, fr)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !got.Ok() {
		t.Fatal("path must match")
	}
	if stats.Rounds != 2 {
		t.Fatalf("dGPMt uses exactly 2 rounds, got %d", stats.Rounds)
	}
}

func TestTreeNoMatchPropagates(t *testing.T) {
	// Path A->B->C, but query wants A->B->Z: everything dies.
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nnode z Z\nedge a b\nedge b z")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("B")
	b.AddNode("C")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	fr, err := partition.FromAssign(g, []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := run(q, fr)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPairs() != 0 {
		t.Fatalf("must be empty, got %v", got)
	}
}

func TestRejectsNonTree(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.MustBuild()
	fr, err := partition.FromAssign(g, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(q, fr); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestRejectsDisconnectedFragment(t *testing.T) {
	// Tree 0->1, 0->2 with fragment {1,2}: two in-nodes in one fragment.
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A")
	b := graph.NewBuilderDict(d)
	b.AddNode("A")
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.MustBuild()
	fr, err := partition.FromAssign(g, []int32{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(q, fr); err == nil {
		t.Fatal("disconnected fragment accepted")
	}
}

// Central property: dGPMt equals centralized simulation and dGPM on
// random tree cases.
func TestQuickTreeEqualsCentralized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, g, fr := randomTreeCase(r)
		want := simulation.HHK(q, g)
		got, _, err := run(q, fr)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !want.Equal(got) {
			t.Logf("seed %d: got %v want %v (frags=%d)", seed, got, want, fr.NumFragments())
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

// Corollary 4's shipment bound: dGPMt ships O(|Q||F|) bytes. We verify
// with a generous constant: per fragment, equations plus values must fit
// in c·|Q|² entries (the reduced root vector has ≤|Vq| equations over
// ≤|Vq| virtual variables per child fragment; children counted once
// globally).
func TestQuickTreeShipmentBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, _, fr := randomTreeCase(r)
		_, stats, err := run(q, fr)
		if err != nil {
			return false
		}
		qsz := int64(q.Size())
		bound := (qsz*qsz + 64) * int64(fr.NumFragments()) * 8
		if stats.DataBytes > bound {
			t.Logf("seed %d: DS=%d > bound %d (|Q|=%d |F|=%d)", seed, stats.DataBytes, bound, qsz, fr.NumFragments())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The tree shipment must not scale with fragment size — only with |F|
// (parallel scalability in data shipment). Double the tree size with the
// same |F| and the shipped bytes should stay in the same ballpark.
func TestTreeShipmentIndependentOfGraphSize(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nedge a b")
	ship := func(n int) int64 {
		r := rand.New(rand.NewSource(5))
		g := randomTree(r, d, n, []string{"A", "B"})
		fr, err := partition.ConnectedTree(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := run(q, fr)
		if err != nil {
			t.Fatal(err)
		}
		return stats.DataBytes
	}
	small := ship(500)
	large := ship(4000)
	if large > 8*small+512 {
		t.Fatalf("shipment grew with |G|: %d -> %d bytes", small, large)
	}
}
