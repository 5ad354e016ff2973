package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgs/internal/graph"
)

func randomGraph(r *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder()
	labels := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		b.AddNode(labels[r.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
	}
	return b.MustBuild()
}

func TestBuildTwoFragments(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, split {0,1} | {2,3}.
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("A")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	fr, err := Build(g, []int32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr.Ef() != 1 || fr.Vf() != 1 {
		t.Fatalf("Ef=%d Vf=%d, want 1,1", fr.Ef(), fr.Vf())
	}
	f0, f1 := fr.Frags[0], fr.Frags[1]
	if len(f0.Virtual) != 1 || f0.Virtual[0] != 2 {
		t.Fatalf("F0.O = %v", f0.Virtual)
	}
	if len(f1.InNodes) != 1 || f1.InNodes[0] != 2 {
		t.Fatalf("F1.I = %v", f1.InNodes)
	}
	if got := f1.InWatchers[2]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("watchers of 2 = %v", got)
	}
	if fr.Assign[2] != 1 {
		t.Fatalf("owner of 2 = %d", fr.Assign[2])
	}
	if !f0.IsLocal(0) || f0.IsLocal(2) || !f0.IsVirtual(2) || f0.IsVirtual(0) {
		t.Fatal("IsLocal/IsVirtual wrong")
	}
	if f0.NumCrossing() != 1 {
		t.Fatalf("crossing = %d", f0.NumCrossing())
	}
	// Sizes: F0 has nodes {0,1}+virtual{2} and 2 edges = 5.
	if f0.Size() != 5 {
		t.Fatalf("F0 size = %d", f0.Size())
	}
	if fr.MaxFragmentSize() != 5 {
		t.Fatalf("Fm = %d", fr.MaxFragmentSize())
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 5, 5)
	if _, err := Build(g, []int32{0, 0}, 1); err == nil {
		t.Fatal("short assign accepted")
	}
	if _, err := Build(g, []int32{0, 0, 0, 0, 9}, 2); err == nil {
		t.Fatal("out-of-range fragment accepted")
	}
	if _, err := Random(g, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestRandomBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 100, 300)
	fr, err := Random(g, 7, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	sizes := fr.FragmentSizes()
	if sizes[0]-sizes[len(sizes)-1] > 1 {
		t.Fatalf("unbalanced: %v", sizes)
	}
}

func TestSingleFragmentHasNoBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 30, 90)
	fr, err := Random(g, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Vf() != 0 || fr.Ef() != 0 {
		t.Fatalf("single fragment must have empty boundary: Vf=%d Ef=%d", fr.Vf(), fr.Ef())
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// localityGraph has edges biased to nearby IDs, like the workload
// generators, so Blocks starts with a low boundary.
func localityGraph(r *rand.Rand, n, m, window int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("A")
	}
	for i := 0; i < m; i++ {
		v := r.Intn(n)
		w := v + r.Intn(2*window+1) - window
		if w < 0 {
			w += n
		}
		if w >= n {
			w -= n
		}
		b.AddEdge(graph.NodeID(v), graph.NodeID(w))
	}
	return b.MustBuild()
}

func TestBlocksLowBoundaryOnLocalGraph(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := localityGraph(r, 1000, 4000, 20)
	fr, err := Blocks(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr.VfRatio() > 0.2 {
		t.Fatalf("block partition of a locality graph should have a small boundary, got %f", fr.VfRatio())
	}
}

func TestTargetRatioRaises(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := localityGraph(r, 1000, 4000, 20)
	for _, target := range []float64{0.25, 0.4, 0.5} {
		fr, err := TargetRatio(g, 8, ByVf, target, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if err := fr.Validate(); err != nil {
			t.Fatal(err)
		}
		if fr.VfRatio() < target {
			t.Fatalf("target %f: achieved only %f", target, fr.VfRatio())
		}
		if fr.VfRatio() > target+0.15 {
			t.Fatalf("target %f: overshot to %f", target, fr.VfRatio())
		}
	}
}

func TestTargetRatioLowers(t *testing.T) {
	// Interleaved communities: even IDs ↔ even IDs, odd ↔ odd. Blocks cut
	// both communities in half, so the greedy reduction path runs.
	r := rand.New(rand.NewSource(17))
	b := graph.NewBuilder()
	n := 300
	for i := 0; i < n; i++ {
		b.AddNode("A")
	}
	for i := 0; i < 5*n; i++ {
		v := r.Intn(n)
		w := r.Intn(n)
		if (v+w)%2 == 1 {
			w = (w + 1) % n
		}
		b.AddEdge(graph.NodeID(v), graph.NodeID(w))
	}
	g := b.MustBuild()
	start, err := Blocks(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := TargetRatio(g, 2, ByEf, 0.05, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr.EfRatio() >= start.EfRatio() {
		t.Fatalf("greedy pass did not reduce Ef ratio: %f -> %f", start.EfRatio(), fr.EfRatio())
	}
}

func TestChainPartition(t *testing.T) {
	// Fig-2 style: A1 B1 A2 B2 ... with edges Ai->Bi->Ai+1 (IDs 0,1,2,...).
	b := graph.NewBuilder()
	n := 8
	for i := 0; i < n; i++ {
		b.AddNode("A")
		b.AddNode("B")
	}
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(2*i), graph.NodeID(2*i+1))
		if i < n-1 {
			b.AddEdge(graph.NodeID(2*i+1), graph.NodeID(2*i+2))
		}
	}
	g := b.MustBuild()
	fr, err := Chain(g, n) // one (Ai,Bi) pair per fragment
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr.NumFragments() != n {
		t.Fatalf("|F| = %d", fr.NumFragments())
	}
	// Each fragment except the last has exactly one crossing edge.
	if fr.Ef() != n-1 {
		t.Fatalf("Ef = %d, want %d", fr.Ef(), n-1)
	}
}

func TestConnectedTreePartition(t *testing.T) {
	// Perfect binary tree of depth 6 (127 nodes).
	b := graph.NewBuilder()
	nn := 127
	for i := 0; i < nn; i++ {
		b.AddNode("A")
	}
	for i := 0; 2*i+2 < nn; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(2*i+1))
		b.AddEdge(graph.NodeID(i), graph.NodeID(2*i+2))
	}
	g := b.MustBuild()
	fr, err := ConnectedTree(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr.NumFragments() < 2 {
		t.Fatalf("|F| = %d, want several", fr.NumFragments())
	}
	// dGPMt precondition: each fragment is connected, hence ≤1 in-node.
	for _, f := range fr.Frags {
		if len(f.InNodes) > 1 {
			t.Fatalf("fragment %d has %d in-nodes; connected subtrees have ≤1", f.ID, len(f.InNodes))
		}
	}
}

func TestConnectedTreeRejectsNonTree(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	if _, err := ConnectedTree(b.MustBuild(), 2); err == nil {
		t.Fatal("cycle accepted as tree")
	}
}

func TestFromAssign(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 10, 20)
	fr, err := FromAssign(g, []int32{0, 1, 2, 0, 1, 2, 0, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumFragments() != 3 {
		t.Fatalf("|F| = %d", fr.NumFragments())
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: any random partition validates, and Vf/Ef are consistent with
// a direct recount.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + int(n8)%40
		g := randomGraph(r, nv, r.Intn(4*nv))
		nf := 1 + r.Intn(5)
		fr, err := Random(g, nf, r)
		if err != nil {
			return false
		}
		if err := fr.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Recount crossing edges directly.
		cross := 0
		virt := map[graph.NodeID]bool{}
		g.Edges(func(v, w graph.NodeID) bool {
			if fr.Assign[v] != fr.Assign[w] {
				cross++
				virt[w] = true
			}
			return true
		})
		return cross == fr.Ef() && len(virt) == fr.Vf()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
