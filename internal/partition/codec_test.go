package partition

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dgs/internal/graph"
	"dgs/internal/wire"
)

// plainFragment is a fragment in a form a test can mangle at will: its
// adjacency and labels by node ID, read off the index by plainOf, and its
// wire encoding written by encode, apart from AppendFragment.
type plainFragment struct {
	ID                      int
	Local, Virtual, InNodes []graph.NodeID
	Succ                    map[graph.NodeID][]graph.NodeID
	Labels                  map[graph.NodeID]graph.Label
	InWatchers              map[graph.NodeID][]int
}

func plainOf(f *Fragment) *plainFragment {
	ix := f.Index()
	p := &plainFragment{
		ID:         f.ID,
		Local:      slices.Clone(f.Local),
		Virtual:    slices.Clone(f.Virtual),
		InNodes:    slices.Clone(f.InNodes),
		Succ:       make(map[graph.NodeID][]graph.NodeID),
		Labels:     make(map[graph.NodeID]graph.Label),
		InWatchers: maps.Clone(f.InWatchers),
	}
	for i, v := range ix.Vis {
		p.Labels[v] = ix.Labels[i]
		if i < int(ix.NL) {
			p.Succ[v] = succOf(f, v)
		}
	}
	return p
}

// encode writes the fragment in the wire layout codec.go documents.
func (p *plainFragment) encode() []byte {
	u32 := wire.AppendUint32
	b := u32(nil, uint32(p.ID))
	for _, vs := range [2][]graph.NodeID{p.Local, p.Virtual} {
		b = u32(b, uint32(len(vs)))
		for _, v := range vs {
			b = wire.AppendUint16(u32(b, v), p.Labels[v])
		}
	}
	b = u32(b, uint32(len(p.InNodes)))
	for _, v := range p.InNodes {
		b = u32(u32(b, v), uint32(len(p.InWatchers[v])))
		for _, w := range p.InWatchers[v] {
			b = u32(b, uint32(w))
		}
	}
	for _, v := range p.Local {
		b = u32(b, uint32(len(p.Succ[v])))
		for _, w := range p.Succ[v] {
			b = u32(b, w)
		}
	}
	return b
}

// succOf lists local v's successors by node ID, as f's index holds them.
func succOf(f *Fragment, v graph.NodeID) []graph.NodeID {
	ix := f.Index()
	li, _ := ix.Find(v)
	var row []graph.NodeID
	for _, wi := range ix.Succ[li] {
		row = append(row, ix.Vis[wi])
	}
	return row
}

// randomFragmentation builds a labeled random graph and a random
// assignment — enough structure to exercise every codec field.
func randomFragmentation(t *testing.T, seed int64) *Fragmentation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	n := 120
	labels := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		b.AddNode(labels[r.Intn(len(labels))])
	}
	seen := map[[2]int]bool{}
	for i := 0; i < 4*n; i++ {
		v, w := r.Intn(n), r.Intn(n)
		if v == w || seen[[2]int{v, w}] {
			continue
		}
		seen[[2]int{v, w}] = true
		b.AddEdge(graph.NodeID(v), graph.NodeID(w))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(r.Intn(5))
	}
	fr, err := Build(g, assign, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestFragmentCodecRoundTrip(t *testing.T) {
	fr := randomFragmentation(t, 42)
	var blob []byte
	for _, f := range fr.Frags {
		blob = AppendFragment(blob, f)
	}
	rest := blob
	decoded := make([]*Fragment, 0, len(fr.Frags))
	for range fr.Frags {
		var f *Fragment
		var err error
		f, rest, err = DecodeFragment(rest)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, f)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	for i, f := range decoded {
		orig := fr.Frags[i]
		if f.ID != orig.ID {
			t.Fatalf("fragment %d: ID %d", i, f.ID)
		}
		if !reflect.DeepEqual(f.Local, orig.Local) || !reflect.DeepEqual(f.Virtual, orig.Virtual) ||
			!reflect.DeepEqual(f.InNodes, orig.InNodes) {
			t.Fatalf("fragment %d: node sets changed across the wire", i)
		}
		if !reflect.DeepEqual(f.InWatchers, orig.InWatchers) {
			t.Fatalf("fragment %d: annotations changed across the wire", i)
		}
		if d := indexDiff(f.Index(), orig.Index()); d != "" {
			t.Fatalf("fragment %d: adjacency or labels changed across the wire: %s", i, d)
		}
		if f.NumEdges() != orig.NumEdges() || f.NumCrossing() != orig.NumCrossing() {
			t.Fatalf("fragment %d: derived counters %d/%d, want %d/%d",
				i, f.NumEdges(), f.NumCrossing(), orig.NumEdges(), orig.NumCrossing())
		}
	}
	// The reassembled fragmentation passes the full §2.2 validation (with
	// the driver's graph reattached for edge-coverage checks).
	re := FragmentationFromParts(fr.Assign, decoded)
	re.G = fr.G
	if err := re.Validate(); err != nil {
		t.Fatalf("decoded fragmentation invalid: %v", err)
	}
	if re.Vf() != fr.Vf() || re.Ef() != fr.Ef() {
		t.Fatalf("boundary stats %d/%d, want %d/%d", re.Vf(), re.Ef(), fr.Vf(), fr.Ef())
	}
}

// Decoded fragments must stay mutable: live updates against shipped
// copies behave exactly like against the originals.
func TestDecodedFragmentMutable(t *testing.T) {
	fr := randomFragmentation(t, 7)
	f0 := fr.Frags[0]
	if len(f0.Local) == 0 || f0.NumEdges() == 0 {
		t.Skip("fragment 0 empty under this seed")
	}
	dec, _, err := DecodeFragment(AppendFragment(nil, f0))
	if err != nil {
		t.Fatal(err)
	}
	var v, w graph.NodeID
	found := false
	for _, lv := range f0.Local {
		if succ := succOf(f0, lv); len(succ) > 0 {
			v, w = lv, succ[0]
			found = true
			break
		}
	}
	if !found {
		t.Skip("no deletable edge")
	}
	d1, err := f0.DeleteEdge(v, w)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dec.DeleteEdge(v, w)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("virtual-status change diverged: original %v, decoded %v", d1, d2)
	}
	if d := indexDiff(dec.Index(), f0.Index()); d != "" || !reflect.DeepEqual(f0.Virtual, dec.Virtual) {
		t.Fatalf("post-mutation state diverged between original and decoded fragment: %s", d)
	}
}

func TestFragmentDecodeRejectsTruncation(t *testing.T) {
	fr := randomFragmentation(t, 3)
	enc := AppendFragment(nil, fr.Frags[1])
	for cut := 1; cut < len(enc); cut += 7 {
		if _, _, err := DecodeFragment(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// A fragment that breaks its own structure is refused at decode, before
// Index or an engine can trip over it: an in-node that is one of the
// fragment's virtual nodes used to panic Index, and a successor the
// fragment cannot see silently aliased the first local node.
func TestFragmentDecodeRejectsMalformed(t *testing.T) {
	fresh := func() *plainFragment {
		b := graph.NewBuilder()
		for _, l := range []string{"a", "b", "a", "b"} {
			b.AddNode(l)
		}
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.AddEdge(2, 3)
		b.AddEdge(3, 0)
		fr, err := Build(b.MustBuild(), []int32{0, 0, 1, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return plainOf(fr.Frags[0]) // locals 0, 1; virtual 2; in-node 0, watched by 1
	}
	if _, _, err := DecodeFragment(fresh().encode()); err != nil {
		t.Fatalf("the unmangled fragment is refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		mangle func(f *plainFragment)
	}{
		{"in-node is virtual", func(f *plainFragment) {
			f.InNodes = append(f.InNodes, 2)
			f.InWatchers[2] = []int{1}
		}},
		{"in-node unknown", func(f *plainFragment) {
			f.InNodes = append(f.InNodes, 9)
			f.InWatchers[9] = []int{1}
		}},
		{"successor unknown", func(f *plainFragment) { f.Succ[1] = []graph.NodeID{2, 7} }},
		{"successor row unsorted", func(f *plainFragment) { f.Succ[0] = []graph.NodeID{1, 0} }},
		{"duplicate successor", func(f *plainFragment) { f.Succ[0] = []graph.NodeID{1, 1} }},
		{"duplicate local", func(f *plainFragment) { f.Local = []graph.NodeID{0, 0, 1} }},
		{"locals unsorted", func(f *plainFragment) { f.Local = []graph.NodeID{1, 0} }},
		{"local and virtual", func(f *plainFragment) { f.Virtual = []graph.NodeID{1, 2} }},
		{"duplicate virtual", func(f *plainFragment) { f.Virtual = []graph.NodeID{2, 2} }},
		{"duplicate in-node", func(f *plainFragment) { f.InNodes = []graph.NodeID{0, 0} }},
		{"in-node unwatched", func(f *plainFragment) { f.InWatchers[0] = nil }},
		{"watchers unsorted", func(f *plainFragment) { f.InWatchers[0] = []int{1, 0} }},
	} {
		f := fresh()
		c.mangle(f)
		if g, _, err := DecodeFragment(f.encode()); err == nil {
			g.Index()
			t.Fatalf("%s: accepted", c.name)
		}
	}

	// A count the remaining bytes cannot hold is refused before it is
	// allocated: 2^32−1 locals in a 12-byte input.
	huge := []byte{0, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 0}
	if _, _, err := DecodeFragment(huge); err == nil {
		t.Fatal("a local count beyond the input was accepted")
	}
}

// ApplyBatchLocal must agree with the distributed update session: same
// mutations, same boundary structure, Validate-clean.
func TestApplyBatchLocalKeepsInvariants(t *testing.T) {
	fr := randomFragmentation(t, 99)
	r := rand.New(rand.NewSource(100))
	g := fr.G
	// Collect some existing edges to delete.
	var dels [][2]graph.NodeID
	for v := 0; v < g.NumNodes() && len(dels) < 25; v++ {
		for _, w := range g.Succ(graph.NodeID(v)) {
			if r.Intn(10) == 0 {
				dels = append(dels, [2]graph.NodeID{graph.NodeID(v), w})
				break
			}
		}
	}
	if len(dels) == 0 {
		t.Fatal("no deletions generated")
	}
	if err := ApplyBatchLocal(fr, dels, nil); err != nil {
		t.Fatal(err)
	}
	// Validate needs the overlay to agree on the edge count.
	ov := fr.Overlay()
	for _, e := range dels {
		if err := ov.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Validate(); err != nil {
		t.Fatalf("after local deletions: %v", err)
	}
	// Re-insert half of them.
	var ins [][2]graph.NodeID
	for i, e := range dels {
		if i%2 == 0 {
			ins = append(ins, e)
		}
	}
	if err := ApplyBatchLocal(fr, nil, ins); err != nil {
		t.Fatal(err)
	}
	for _, e := range ins {
		if err := ov.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Validate(); err != nil {
		t.Fatalf("after local insertions: %v", err)
	}
}
