package partition

import (
	"math/rand"
	"testing"

	"dgs/internal/graph"
)

// checkIndexDegrees holds Pos and OutDeg against what they summarise:
// ByLabel and the Succ rows.
func checkIndexDegrees(t *testing.T, f *Fragment) {
	t.Helper()
	ix := f.Index()
	for l, bucket := range ix.ByLabel {
		nloc := len(bucket) - ix.VirtOf[l]
		for p, i := range bucket {
			if ix.Pos[i] != int32(p) || ix.Labels[i] != l {
				t.Fatalf("frag %d: node %d is at %d in bucket %d, Pos says %d", f.ID, i, p, l, ix.Pos[i])
			}
			if (i < ix.NL) != (p < nloc) {
				t.Fatalf("frag %d: bucket %d's local prefix does not end at len − VirtOf", f.ID, l)
			}
		}
	}
	want := make(map[graph.Label][]int)
	for li, row := range ix.Succ {
		for _, wi := range row {
			l := ix.Labels[wi]
			if want[l] == nil {
				want[l] = make([]int, ix.NL)
			}
			want[l][li]++
		}
	}
	if len(ix.OutDeg) != len(want) {
		t.Fatalf("frag %d: OutDeg has rows for %d labels, successors carry %d", f.ID, len(ix.OutDeg), len(want))
	}
	for l, row := range want {
		for li, n := range row {
			if got := int(ix.OutDeg[l][li]); got != min(n, OutDegSat) {
				t.Fatalf("frag %d: OutDeg[%d][%d] = %d, %d successors", f.ID, l, li, got, n)
			}
		}
	}
}

func TestIndexPosAndOutDeg(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(40)
		fr, err := Random(randomGraph(r, nv, r.Intn(4*nv)), 1+r.Intn(5), r)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fr.Frags {
			checkIndexDegrees(t, f)
		}
	}

	// Fragment 0 sees label B on a virtual node only, label C nowhere; its
	// hub has more same-label successors than a cell can count.
	b := graph.NewBuilder()
	hub := b.AddNode("A")
	for i := 0; i < OutDegSat+45; i++ {
		b.AddEdge(hub, b.AddNode("A"))
	}
	far := b.AddNode("B")
	b.AddEdge(hub, far)
	b.AddEdge(far, b.AddNode("C"))
	g := b.MustBuild()
	assign := make([]int32, g.NumNodes())
	assign[far], assign[far+1] = 1, 1
	fr, err := FromAssign(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fr.Frags {
		checkIndexDegrees(t, f)
	}
	ix := fr.Frags[0].Index()
	lb, lc := g.Label(far), g.Label(far+1)
	if len(ix.ByLabel[lb]) != 1 || ix.VirtOf[lb] != 1 || ix.OutDeg[lb][0] != 1 {
		t.Fatalf("virtual-only label: bucket %v, VirtOf %d, OutDeg row %v", ix.ByLabel[lb], ix.VirtOf[lb], ix.OutDeg[lb])
	}
	if ix.ByLabel[lc] != nil || ix.OutDeg[lc] != nil {
		t.Fatalf("absent label has bucket %v, OutDeg row %v", ix.ByLabel[lc], ix.OutDeg[lc])
	}
	if ix.OutDeg[g.Label(hub)][0] != OutDegSat {
		t.Fatalf("hub's cell = %d, want saturated", ix.OutDeg[g.Label(hub)][0])
	}
}
