package partition

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dgs/internal/graph"
)

// checkIndex holds the label-major index against the fragment it
// summarises: the numbering, the label ranges, the adjacency rows, the
// watcher rows and the per-label tallies.
func checkIndex(t *testing.T, f *Fragment) {
	t.Helper()
	ix := f.Index()
	nl := int(ix.NL)
	if nl != len(f.Local) || len(ix.Vis) != nl+len(f.Virtual) {
		t.Fatalf("frag %d: %d locals of %d visible, fragment has %d and %d", f.ID, nl, len(ix.Vis), len(f.Local), len(f.Virtual))
	}
	// Locals are a stable label-major permutation; virtuals keep their order.
	want := slices.Clone(f.Local)
	slices.SortStableFunc(want, func(a, b graph.NodeID) int { return int(f.Labels[a]) - int(f.Labels[b]) })
	if !slices.Equal(ix.Vis[:nl], want) {
		t.Fatalf("frag %d: locals are not stably label-major:\n got %v\nwant %v", f.ID, ix.Vis[:nl], want)
	}
	if !slices.Equal(ix.Vis[nl:], f.Virtual) {
		t.Fatalf("frag %d: virtuals out of Fragment order", f.ID)
	}
	for i, v := range ix.Vis {
		if ix.VisIdx[v] != int32(i) || ix.Labels[i] != f.Labels[v] {
			t.Fatalf("frag %d: node %d at %d: VisIdx %d, label %d (want %d)", f.ID, v, i, ix.VisIdx[v], ix.Labels[i], f.Labels[v])
		}
	}
	// Each label's range covers exactly its locals.
	perLabel := make(map[graph.Label]int)
	maxLabel := graph.Label(0)
	for v, l := range f.Labels {
		if f.IsLocal(v) {
			perLabel[l]++
		}
		maxLabel = max(maxLabel, l)
	}
	for l := graph.Label(0); l <= maxLabel+1; l++ {
		lo, hi := ix.Locals(l)
		if int(hi-lo) != perLabel[l] {
			t.Fatalf("frag %d: label %d's range [%d,%d), %d locals carry it", f.ID, l, lo, hi, perLabel[l])
		}
		for li := lo; li < hi; li++ {
			if ix.Labels[li] != l {
				t.Fatalf("frag %d: local %d in label %d's range is labelled %d", f.ID, li, l, ix.Labels[li])
			}
		}
	}
	if lo, hi := ix.Locals(1<<16 - 1); lo != hi {
		t.Fatalf("frag %d: an absent label has the range [%d,%d)", f.ID, lo, hi)
	}
	// Succ rows follow the fragment's rows; Pred is their transpose,
	// every row ascending.
	wantPred := make([][]int32, len(ix.Vis))
	for li, v := range ix.Vis[:nl] {
		var row []int32
		for _, w := range f.Succ[v] {
			row = append(row, ix.VisIdx[w])
			wantPred[ix.VisIdx[w]] = append(wantPred[ix.VisIdx[w]], int32(li))
		}
		if !slices.Equal(ix.Succ[li], row) {
			t.Fatalf("frag %d: Succ[%d] = %v, want %v", f.ID, li, ix.Succ[li], row)
		}
	}
	for vi, row := range ix.Pred {
		if !slices.Equal(row, wantPred[vi]) || !slices.IsSorted(row) {
			t.Fatalf("frag %d: Pred[%d] = %v, want %v ascending", f.ID, vi, row, wantPred[vi])
		}
	}
	// Watcher rows are InWatchers by local index; In is InNodes.
	var in []int32
	for _, v := range f.InNodes {
		in = append(in, ix.VisIdx[v])
	}
	if !slices.Equal(ix.In, in) {
		t.Fatalf("frag %d: In = %v, want %v", f.ID, ix.In, in)
	}
	inOf := make(map[graph.Label]int)
	for li, v := range ix.Vis[:nl] {
		var ws []int32
		for _, w := range f.InWatchers[v] {
			ws = append(ws, int32(w))
		}
		if got := ix.Watchers(int32(li)); !slices.Equal(got, ws) {
			t.Fatalf("frag %d: watchers of %d = %v, InWatchers %v", f.ID, v, got, ws)
		}
		_, isIn := f.InWatchers[v]
		if ix.IsIn[li] != isIn {
			t.Fatalf("frag %d: IsIn[%d] = %v", f.ID, li, ix.IsIn[li])
		}
		if isIn {
			inOf[ix.Labels[li]]++
		}
	}
	if !maps.Equal(ix.InOf, inOf) {
		t.Fatalf("frag %d: InOf = %v, want %v", f.ID, ix.InOf, inOf)
	}
	virt := make(map[graph.Label][]int32)
	for vi := nl; vi < len(ix.Vis); vi++ {
		virt[ix.Labels[vi]] = append(virt[ix.Labels[vi]], int32(vi))
	}
	if !maps.EqualFunc(ix.Virt, virt, slices.Equal) {
		t.Fatalf("frag %d: Virt = %v, want %v", f.ID, ix.Virt, virt)
	}
	// OutDeg counts each local's successors per label, saturating.
	deg := make(map[graph.Label][]int)
	for li, row := range ix.Succ {
		for _, wi := range row {
			l := ix.Labels[wi]
			if deg[l] == nil {
				deg[l] = make([]int, nl)
			}
			deg[l][li]++
		}
	}
	if len(ix.OutDeg) != len(deg) {
		t.Fatalf("frag %d: OutDeg has rows for %d labels, successors carry %d", f.ID, len(ix.OutDeg), len(deg))
	}
	for l, row := range deg {
		for li, n := range row {
			if got := int(ix.OutDeg[l][li]); got != min(n, OutDegSat) {
				t.Fatalf("frag %d: OutDeg[%d][%d] = %d, %d successors", f.ID, l, li, got, n)
			}
		}
	}
}

func TestIndexLabelMajor(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(40)
		fr, err := Random(randomGraph(r, nv, r.Intn(4*nv)), 1+r.Intn(5), r)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fr.Frags {
			checkIndex(t, f)
		}
	}

	// After in-place mutation: the index rebuilt from the mutated fragments
	// (watchers added and dropped, virtual nodes born and retired).
	for seed := int64(0); seed < 10; seed++ {
		fr := randomFragmentation(t, seed)
		r := rand.New(rand.NewSource(seed))
		g := fr.G
		for batch := 0; batch < 4; batch++ {
			var dels, ins [][2]graph.NodeID
			cur := fr.CurrentGraph()
			cur.Edges(func(v, w graph.NodeID) bool {
				if r.Intn(12) == 0 {
					dels = append(dels, [2]graph.NodeID{v, w})
				}
				return true
			})
			for i := 0; i < 20; i++ {
				v, w := graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))
				if v != w && !cur.HasEdge(v, w) && !slices.Contains(ins, [2]graph.NodeID{v, w}) {
					ins = append(ins, [2]graph.NodeID{v, w})
				}
			}
			for _, f := range fr.Frags {
				f.Index() // cached before the batch, so the batch must drop it
			}
			if err := ApplyBatchLocal(fr, dels, ins); err != nil {
				t.Fatal(err)
			}
			ov := fr.Overlay()
			for _, e := range dels {
				if err := ov.DeleteEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range ins {
				if err := ov.InsertEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := fr.Validate(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			for _, f := range fr.Frags {
				checkIndex(t, f)
			}
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
		checkIndex(t, f)
	}
	ix := fr.Frags[0].Index()
	lb, lc := g.Label(far), g.Label(far+1)
	h := ix.VisIdx[hub]
	if lo, hi := ix.Locals(lb); lo != hi || len(ix.Virt[lb]) != 1 || ix.OutDeg[lb][h] != 1 {
		t.Fatalf("virtual-only label: range [%d,%d), Virt %v, OutDeg row %v", lo, hi, ix.Virt[lb], ix.OutDeg[lb])
	}
	if lo, hi := ix.Locals(lc); lo != hi || ix.Virt[lc] != nil || ix.OutDeg[lc] != nil {
		t.Fatalf("absent label has range [%d,%d), Virt %v, OutDeg row %v", lo, hi, ix.Virt[lc], ix.OutDeg[lc])
	}
	if ix.OutDeg[g.Label(hub)][h] != OutDegSat {
		t.Fatalf("hub's cell = %d, want saturated", ix.OutDeg[g.Label(hub)][h])
	}
}
