package partition

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dgs/internal/graph"
)

// checkIndex holds the label-major index of f against the current
// graph of fr, which it summarises for f: the numbering, the label
// ranges, the adjacency rows, the watcher rows and the per-label tallies.
func checkIndex(t *testing.T, fr *Fragmentation, f *Fragment) {
	t.Helper()
	g := fr.CurrentGraph()
	ix := f.Index()
	nl := int(ix.NL)
	if nl != len(f.Local) || len(ix.Vis) != nl+len(f.Virtual) {
		t.Fatalf("frag %d: %d locals of %d visible, fragment has %d and %d", f.ID, nl, len(ix.Vis), len(f.Local), len(f.Virtual))
	}
	// Locals are a stable label-major permutation; virtuals ascend.
	want := slices.Clone(f.Local)
	slices.SortStableFunc(want, func(a, b graph.NodeID) int { return int(g.Label(a)) - int(g.Label(b)) })
	if !slices.Equal(ix.Vis[:nl], want) {
		t.Fatalf("frag %d: locals are not stably label-major:\n got %v\nwant %v", f.ID, ix.Vis[:nl], want)
	}
	if !slices.Equal(ix.Vis[nl:], f.Virtual) {
		t.Fatalf("frag %d: virtuals out of Fragment order", f.ID)
	}
	for i, v := range ix.Vis {
		if vi, ok := ix.Find(v); vi != int32(i) || !ok || ix.Labels[i] != g.Label(v) {
			t.Fatalf("frag %d: node %d at %d: Find %d, %v, label %d (want %d)", f.ID, v, i, vi, ok, ix.Labels[i], g.Label(v))
		}
	}
	find := func(v graph.NodeID) int32 {
		t.Helper()
		vi, ok := ix.Find(v)
		if !ok {
			t.Fatalf("frag %d: Find misses visible node %d", f.ID, v)
		}
		return vi
	}
	// Each label's range covers exactly its locals.
	perLabel := make(map[graph.Label]int)
	maxLabel := graph.Label(0)
	for i, v := range ix.Vis {
		l := g.Label(v)
		if i < nl {
			perLabel[l]++
		}
		maxLabel = max(maxLabel, l)
	}
	if len(ix.labelStart) != int(maxLabel)+2 {
		t.Fatalf("frag %d: %d label range bounds, largest visible label %d", f.ID, len(ix.labelStart), maxLabel)
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
	// Succ rows are the graph's rows; Pred is their transpose, every row
	// ascending.
	wantPred := make([][]int32, len(ix.Vis))
	for li, v := range ix.Vis[:nl] {
		var row []int32
		for _, w := range g.Succ(v) {
			wi := find(w)
			row = append(row, wi)
			wantPred[wi] = append(wantPred[wi], int32(li))
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
		in = append(in, find(v))
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
			checkIndex(t, fr, f)
		}
	}

	// After in-place mutation: large batches of deletions and insertions
	// together (watchers added and dropped, virtual nodes born and
	// retired) onto cached indexes, patched in place or renumbered.
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
				f.Index() // cached before the batch
			}
			applyBatch(t, fr, dels, ins)
			for _, f := range fr.Frags {
				checkIndex(t, fr, f)
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
		checkIndex(t, fr, f)
	}
	ix := fr.Frags[0].Index()
	lb, lc := g.Label(far), g.Label(far+1)
	h, _ := ix.Find(hub)
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

// indexDiff describes the first field in which got differs from want, or
// returns "" when they agree.
func indexDiff(got, want *Index) string {
	fields := []struct {
		name      string
		got, want any
	}{
		{"Vis", got.Vis, want.Vis},
		{"table", got.table, want.table},
		{"NL", got.NL, want.NL},
		{"IsIn", got.IsIn, want.IsIn},
		{"In", got.In, want.In},
		{"Succ", got.Succ, want.Succ},
		{"Pred", got.Pred, want.Pred},
		{"Labels", got.Labels, want.Labels},
		{"Virt", got.Virt, want.Virt},
		{"OutDeg", got.OutDeg, want.OutDeg},
		{"InOf", got.InOf, want.InOf},
		{"labelStart", got.labelStart, want.labelStart},
		{"watchStart", got.watchStart, want.watchStart},
		{"watchers", got.watchers, want.watchers},
		{"prepared", got.numPrepared(), want.numPrepared()},
	}
	if n := reflect.TypeOf(Index{}).NumField(); n != len(fields) {
		return fmt.Sprintf("indexDiff compares %d of Index's %d fields", len(fields), n)
	}
	for _, c := range fields {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Sprintf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	return ""
}

// applyBatch applies one update batch as replayBatch does and checks
// the §2.2 invariants, which folds every fragment's log.
func applyBatch(t *testing.T, fr *Fragmentation, dels, ins [][2]graph.NodeID) {
	t.Helper()
	replayBatch(t, fr, dels, ins)
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// replayBatch applies one update batch as a driver replays it —
// ApplyBatchLocal on the fragments, the overlay alongside — and leaves
// the fragments' logs unfolded.
func replayBatch(t *testing.T, fr *Fragmentation, dels, ins [][2]graph.NodeID) {
	t.Helper()
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
}

// batchKinds names the batches drawBatch draws, by what they do to the
// indexes: edit Succ rows only (the first three), retire or give birth
// to a virtual node, which changes its owner's watchers and nothing else
// there, or delete and insert together, so that one Pred row can lose
// and gain sources in the same patch.
var batchKinds = []string{"deletions", "same-fragment insertions", "cross-fragment insertions", "watcher notices", "mixed"}

func drawBatch(r *rand.Rand, fr *Fragmentation, kind int) (dels, ins [][2]graph.NodeID) {
	n := fr.G.NumNodes()
	cur := fr.CurrentGraph()
	cur.EnsureReverse()
	want := 1 + r.Intn(3)
	if kind == 4 {
		want += 3
	}
	for try := 0; try < 1000 && len(dels)+len(ins) < want; try++ {
		v, w := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		f := fr.Frags[fr.Assign[v]]
		row := cur.Succ(v)
		_, present := slices.BinarySearch(row, w)
		cross := fr.Assign[w] != fr.Assign[v]
		if kind == 4 && r.Intn(2) == 0 { // an insertion; the other half delete
			if len(dels) > 0 && r.Intn(2) == 0 {
				// Into a deleted edge's target, from a local of its fragment.
				d := dels[r.Intn(len(dels))]
				f = fr.Frags[fr.Assign[d[0]]]
				v, w = f.Local[r.Intn(len(f.Local))], d[1]
				_, present = slices.BinarySearch(cur.Succ(v), w)
			}
			if e := [2]graph.NodeID{v, w}; v != w && !present && !slices.Contains(ins, e) && (f.IsLocal(w) || f.IsVirtual(w)) {
				ins = append(ins, e)
			}
			continue
		}
		switch kind {
		case 0, 4:
			if len(row) > 0 {
				if e := [2]graph.NodeID{v, row[r.Intn(len(row))]}; !slices.Contains(dels, e) {
					dels = append(dels, e)
				}
			}
		case 1, 2: // inside the fragment, or to a node it already holds as virtual
			e := [2]graph.NodeID{v, w}
			if v != w && !present && !slices.Contains(ins, e) && cross == (kind == 2) && (!cross || f.IsVirtual(w)) {
				ins = append(ins, e)
			}
		case 3: // retire a virtual node, or give birth to one
			if r.Intn(2) == 0 {
				for _, x := range row {
					if f.IsVirtual(x) && slices.IndexFunc(cur.Pred(x), func(u graph.NodeID) bool {
						return u != v && fr.Assign[u] == fr.Assign[v]
					}) < 0 {
						return [][2]graph.NodeID{{v, x}}, nil // its last crossing edge
					}
				}
			} else if cross && !f.IsVirtual(w) {
				return nil, [][2]graph.NodeID{{v, w}}
			}
		}
	}
	return dels, ins
}

// TestIndexMatchesRebuild holds the folded index against an independent
// reference over ApplyBatchLocal streams: after every batch — or every
// run of two or three, so that one fold replays a log gathered over
// several — each fragment's Index equals, field for field, the index a
// fresh Build of the current graph gives it, and every index taken before
// the batches is exactly as it was. The streams must patch indexes in
// place, refill watchers, renumber the virtual nodes after births and
// deaths, and fold logs in which a virtual node was born and retired.
func TestIndexMatchesRebuild(t *testing.T) {
	patched, watchersPatched, renumbered, transient := 0, 0, 0, 0
	for seed := int64(0); seed < 12; seed++ {
		fr := randomFragmentation(t, seed)
		r := rand.New(rand.NewSource(seed))
		before := make([]*Index, len(fr.Frags))
		snaps := make([]string, len(fr.Frags))
		for step := 0; step < 40; step++ {
			for i, f := range fr.Frags {
				before[i] = f.Index()
				snaps[i] = fmt.Sprint(*before[i])
			}
			var kinds []string
			born := make([][]graph.NodeID, len(fr.Frags)) // virtuals the run gave birth to
			var newborn [][2]graph.NodeID                 // the last batch's birth, if it was one
			for b := 0; b < 1+step%3; b++ {
				kind := (step + b) % len(batchKinds)
				dels, ins := drawBatch(r, fr, kind)
				name := batchKinds[kind]
				if newborn != nil { // retire it again before the fold
					dels, ins, name = newborn, nil, "retire the newborn"
				}
				replayBatch(t, fr, dels, ins)
				kinds = append(kinds, name)
				newborn = nil
				if kind == 3 && len(ins) == 1 {
					newborn = ins
				}
				for i, f := range fr.Frags {
					for _, w := range f.Virtual {
						if _, ok := before[i].Find(w); !ok && !slices.Contains(born[i], w) {
							born[i] = append(born[i], w)
						}
					}
				}
			}
			fresh, err := Build(fr.CurrentGraph(), fr.Assign, len(fr.Frags))
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range fr.Frags {
				what := fmt.Sprintf("seed %d step %d (%v) frag %d", seed, step, kinds, f.ID)
				ix, old := f.Index(), before[i]
				if d := indexDiff(ix, fresh.Frags[i].Index()); d != "" {
					t.Fatalf("%s: %s", what, d)
				}
				checkIndex(t, fr, f)
				if fmt.Sprint(*old) != snaps[i] {
					t.Fatalf("%s: the index taken before the batch changed", what)
				}
				switch {
				case ix == old || len(ix.Vis) == 0:
				case &ix.Vis[0] == &old.Vis[0]: // a patch shares the numbering
					patched++
					if &ix.watchStart[0] != &old.watchStart[0] {
						watchersPatched++
					}
					if len(born[i]) > 0 { // born and retired inside the log
						transient++
					}
				case !slices.Equal(ix.Vis[ix.NL:], old.Vis[old.NL:]):
					renumbered++
				}
			}
			if err := fr.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d patched indexes, %d with their watchers refilled, %d renumbered, %d across a virtual's birth and death", patched, watchersPatched, renumbered, transient)
	if patched < 500 || watchersPatched < 50 || renumbered < 100 || transient < 20 {
		t.Fatalf("the patch path ran %d times, refilling watchers %d times, renumbering %d times, across a birth and death %d times: the streams no longer exercise it",
			patched, watchersPatched, renumbered, transient)
	}

	// A patch that deletes a label's last successor edge drops its OutDeg
	// row, and one that inserts it again brings the row back.
	b := graph.NewBuilder()
	a, bb := b.AddNode("A"), b.AddNode("B")
	b.AddEdge(a, bb)
	b.AddEdge(b.AddNode("A"), a)
	g := b.MustBuild()
	fr, err := FromAssign(g, make([]int32, g.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	f := fr.Frags[0]
	for _, batch := range []struct{ dels, ins [][2]graph.NodeID }{
		{dels: [][2]graph.NodeID{{a, bb}}},
		{ins: [][2]graph.NodeID{{a, bb}}},
	} {
		old := f.Index()
		applyBatch(t, fr, batch.dels, batch.ins)
		ix := f.Index()
		if &ix.Vis[0] != &old.Vis[0] {
			t.Fatal("an edge-only batch rebuilt the index")
		}
		fresh, err := Build(fr.CurrentGraph(), fr.Assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := indexDiff(ix, fresh.Frags[0].Index()); d != "" {
			t.Fatalf("after %v: %s", batch, d)
		}
		if (ix.OutDeg[g.Label(bb)] != nil) != (len(batch.ins) > 0) {
			t.Fatalf("after %v: OutDeg row of B = %v", batch, ix.OutDeg[g.Label(bb)])
		}
	}

	// A virtual node born and retired between two folds has no row in
	// the old index, and its edits cancel out: they must not land on
	// another node's Pred row — here Vis[0]'s, which v already precedes.
	b = graph.NewBuilder()
	x, v, w := b.AddNode("A"), b.AddNode("A"), b.AddNode("B")
	b.AddEdge(v, x)
	g = b.MustBuild()
	if fr, err = FromAssign(g, []int32{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	f = fr.Frags[0]
	old := f.Index()
	if old.Vis[0] != x {
		t.Fatalf("Vis = %v, want %d first", old.Vis, x)
	}
	replayBatch(t, fr, nil, [][2]graph.NodeID{{v, w}})
	replayBatch(t, fr, [][2]graph.NodeID{{v, w}}, nil)
	ix := f.Index()
	if &ix.Vis[0] != &old.Vis[0] {
		t.Fatal("a fold that leaves the virtual set as it was renumbered the index")
	}
	fresh, err := Build(fr.CurrentGraph(), fr.Assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := indexDiff(ix, fresh.Frags[0].Index()); d != "" {
		t.Fatalf("after a virtual's birth and death: %s", d)
	}
}

// checkFind holds ix's Find against f: every visible node resolves to
// its position in Vis, and every other ID up to one past the largest
// visible one misses, as does the largest NodeID.
func checkFind(t *testing.T, what string, f *Fragment, ix *Index) {
	t.Helper()
	for i, v := range ix.Vis {
		if vi, ok := ix.Find(v); vi != int32(i) || !ok {
			t.Fatalf("%s: Find(%d) = %d, %v, want %d, true", what, v, vi, ok, i)
		}
	}
	maxVis := slices.Max(append([]graph.NodeID{0}, ix.Vis...))
	for v := graph.NodeID(0); v <= maxVis+1; v++ {
		if f.IsLocal(v) || f.IsVirtual(v) {
			continue
		}
		if vi, ok := ix.Find(v); ok {
			t.Fatalf("%s: Find(%d) = %d for a node the fragment cannot see", what, v, vi)
		}
	}
	if vi, ok := ix.Find(math.MaxUint32); ok {
		t.Fatalf("%s: Find(MaxUint32) = %d", what, vi)
	}
}

// TestIndexFind: the open-addressed table inverts Vis on built and
// patched indexes and misses everything else, including on probe runs
// that wrap past the last slot.
func TestIndexFind(t *testing.T) {
	patched := 0
	for seed := int64(0); seed < 6; seed++ {
		fr := randomFragmentation(t, seed)
		r := rand.New(rand.NewSource(seed))
		for _, f := range fr.Frags {
			checkFind(t, fmt.Sprintf("seed %d frag %d built", seed, f.ID), f, f.Index())
		}
		for step := 0; step < 10; step++ {
			before := make([]*Index, len(fr.Frags))
			for i, f := range fr.Frags {
				before[i] = f.Index()
			}
			dels, ins := drawBatch(r, fr, step%len(batchKinds))
			applyBatch(t, fr, dels, ins)
			for i, f := range fr.Frags {
				ix := f.Index()
				if ix != before[i] && len(ix.Vis) > 0 && &ix.Vis[0] == &before[i].Vis[0] {
					patched++
				}
				checkFind(t, fmt.Sprintf("seed %d step %d frag %d", seed, step, f.ID), f, ix)
			}
		}
	}
	if patched == 0 {
		t.Fatal("the streams patched no index")
	}

	// Four locals whose probes all start at the last of the table's eight
	// slots: three of them wrap to the front.
	const n = 4
	shape := newVisTable(make([]graph.NodeID, n)) // sized for n nodes; only its hash is used
	last := uint64(len(shape.slots) - 1)
	var ids []graph.NodeID
	for v := graph.NodeID(0); len(ids) < n; v++ {
		if shape.home(v) == last {
			ids = append(ids, v)
		}
	}
	b := graph.NewBuilder()
	assign := make([]int32, ids[n-1]+1)
	for v := range assign {
		b.AddNode("a")
		assign[v] = 1
	}
	for _, v := range ids {
		assign[v] = 0
	}
	fr, err := FromAssign(b.MustBuild(), assign)
	if err != nil {
		t.Fatal(err)
	}
	f := fr.Frags[0]
	ix := f.Index()
	if len(ix.table.slots) != len(shape.slots) {
		t.Fatalf("%d visible nodes got %d slots, want %d", len(ix.Vis), len(ix.table.slots), len(shape.slots))
	}
	for j := range uint64(n - 1) {
		if s := ix.table.slots[j]; s == 0 || ix.table.home(graph.NodeID(s>>32)) != last {
			t.Fatalf("slot %d holds %#x, want a node wrapped from slot %d", j, s, last)
		}
	}
	checkFind(t, "colliding IDs", f, ix)
}

// TestIndexMutationLog: an index stops being current at the first
// mutation logged against it, an edit sees the edits logged before it,
// and a full log is folded at once.
func TestIndexMutationLog(t *testing.T) {
	fr := randomFragmentation(t, 5)
	f := fr.Frags[0]
	var v, w graph.NodeID
	found := false
	for _, x := range f.Local {
		for _, y := range succOf(f, x) {
			if f.IsLocal(y) && !found {
				v, w, found = x, y, true
			}
		}
	}
	if !found {
		t.Fatal("fragment 0 has no local edge")
	}
	const site = 99 // a watcher no fragment is
	x := f.Local[0]
	mutators := []struct {
		name string
		do   func() error
	}{
		{"DeleteEdge", func() error { _, err := f.DeleteEdge(v, w); return err }},
		{"InsertEdge", func() error { _, err := f.InsertEdge(v, w, fr.G.Label(w)); return err }},
		{"AddWatcher", func() error { f.AddWatcher(x, site); return nil }},
		{"RemoveWatcher", func() error { f.RemoveWatcher(x, site); return nil }},
	}
	mutate := func(k int) {
		t.Helper()
		if err := mutators[k].do(); err != nil {
			t.Fatal(err)
		}
	}
	for k, m := range mutators {
		ix := f.Index()
		mutate(k)
		if f.IndexCurrent(ix) {
			t.Fatalf("%s: the index taken before it is still current", m.name)
		}
		if nx := f.Index(); nx == ix || !f.IndexCurrent(nx) {
			t.Fatalf("%s: Index did not move on to a current index", m.name)
		}
	}
	// The second deletion of (v, w) reads the first from the log.
	ix := f.Index()
	mutate(0)
	if _, err := f.DeleteEdge(v, w); err == nil {
		t.Fatal("an edge deleted in the log was deleted again")
	}
	mutate(1)
	if _, err := f.InsertEdge(v, w, fr.G.Label(w)); err == nil {
		t.Fatal("an edge inserted in the log was inserted again")
	}
	// Delete and re-insert (v, w) alternately: the log grows until it is
	// full, and is folded at the edit that fills it.
	for len(f.edits) > 0 {
		n := len(f.edits) + 1
		mutate(1 - n%2)
		if full := n*n >= 256*f.numEdges; full != (len(f.edits) == 0) {
			t.Fatalf("a log of %d edits on %d edges: full %v, folded %v", n, f.numEdges, full, len(f.edits) == 0)
		}
	}
	if f.idx == ix || !f.IndexCurrent(f.idx) {
		t.Fatal("the full log did not fold into a current index")
	}
	if !f.hasEdge(v, w) { // the fold came on a deletion
		mutate(1)
	}
	checkIndex(t, fr, f)
}

// numPrepared reports how many prepared states the index holds.
func (ix *Index) numPrepared() int {
	ix.prepared.mu.Lock()
	defer ix.prepared.mu.Unlock()
	return len(ix.prepared.entries)
}

// TestPreparedDiesWithItsIndex: state filed on an index stays with that
// index. After a batch, a fragment it touched has a new index — patched
// in place or renumbered — with an empty memo, while the old index still holds what
// was filed on it; a fragment it left alone keeps index and memo.
func TestPreparedDiesWithItsIndex(t *testing.T) {
	kept, patched, renumbered := 0, 0, 0
	for seed := int64(0); seed < 6; seed++ {
		fr := randomFragmentation(t, seed)
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 20; step++ {
			before := make([]*Index, len(fr.Frags))
			for i, f := range fr.Frags {
				before[i] = f.Index()
				before[i].Prepare("q", step)
			}
			kind := step % len(batchKinds)
			dels, ins := drawBatch(r, fr, kind)
			applyBatch(t, fr, dels, ins)
			for i, f := range fr.Frags {
				what := fmt.Sprintf("seed %d step %d (%s) frag %d", seed, step, batchKinds[kind], f.ID)
				ix := f.Index()
				if got := before[i].Prepared("q"); got != step {
					t.Fatalf("%s: the old index lost its state: %v", what, got)
				}
				switch {
				case ix == before[i]:
					kept++
				case ix.numPrepared() != 0 || ix.Prepared("q") != nil:
					t.Fatalf("%s: the new index starts with %d prepared states", what, ix.numPrepared())
				case len(ix.Vis) > 0 && &ix.Vis[0] == &before[i].Vis[0]:
					patched++
				default:
					renumbered++
				}
			}
		}
	}
	t.Logf("%d indexes kept, %d patched, %d renumbered", kept, patched, renumbered)
	if kept == 0 || patched == 0 || renumbered == 0 {
		t.Fatal("the streams no longer keep, patch and renumber indexes")
	}
}

// TestPreparedIsLRU: the memo never holds more than preparedCap states,
// evicts the least recently used, and counts a hit as a use.
func TestPreparedIsLRU(t *testing.T) {
	ix := randomFragmentation(t, 1).Frags[0].Index()
	for k := range preparedCap {
		ix.Prepare(fmt.Sprint(k), k)
	}
	if ix.Prepared("0") != 0 {
		t.Fatal("a full memo lost its oldest entry before any eviction")
	}
	for k := preparedCap; k < preparedCap+4; k++ {
		ix.Prepare(fmt.Sprint(k), k)
	}
	if n := ix.numPrepared(); n != preparedCap {
		t.Fatalf("%d keys filed leave %d entries, want %d", preparedCap+4, n, preparedCap)
	}
	// "0" was used last before the overflow, so "1".."4" went.
	for k := range preparedCap + 4 {
		want := any(k)
		if k >= 1 && k <= 4 {
			want = nil
		}
		if got := ix.Prepared(fmt.Sprint(k)); got != want {
			t.Fatalf("key %d: %v, want %v", k, got, want)
		}
	}
	ix.Prepare("0", "again")
	if ix.Prepared("0") != "again" || ix.numPrepared() != preparedCap {
		t.Fatal("refiling a key did not replace its state in place")
	}
}
