package plan

import (
	"math/rand"
	"reflect"
	"testing"

	"dgs/internal/graph"
	"dgs/internal/pattern"
)

// testGraph: 1 node labeled rare, 10 labeled mid, 100 labeled common;
// every common node points at the rare node.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	rare := b.AddNode("rare")
	for i := 0; i < 10; i++ {
		b.AddNode("mid")
	}
	for i := 0; i < 100; i++ {
		v := b.AddNode("common")
		b.AddEdge(v, rare)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCollect(t *testing.T) {
	g := testGraph(t)
	st := Collect(g)
	dict := g.Dict()
	if got := st.Candidates(mustLabel(t, dict, "rare")); got != 1 {
		t.Fatalf("rare candidates = %d, want 1", got)
	}
	if got := st.Candidates(mustLabel(t, dict, "mid")); got != 10 {
		t.Fatalf("mid candidates = %d, want 10", got)
	}
	if got := st.Candidates(mustLabel(t, dict, "common")); got != 100 {
		t.Fatalf("common candidates = %d, want 100", got)
	}
	if got := st.OutSum(mustLabel(t, dict, "common")); got != 100 {
		t.Fatalf("common out-degree sum = %d, want 100", got)
	}
	if got := st.Candidates(graph.Label(9999)); got != 0 {
		t.Fatalf("unknown label candidates = %d, want 0", got)
	}
}

func mustLabel(t *testing.T, d *graph.Dict, name string) graph.Label {
	t.Helper()
	l, ok := d.Lookup(name)
	if !ok {
		t.Fatalf("label %q not interned", name)
	}
	return l
}

func TestGreedyPlanOrders(t *testing.T) {
	g := testGraph(t)
	st := Collect(g)
	// Declared common-first so the planner must reorder.
	q := pattern.MustParse(g.Dict(), `
node a common
node b mid
node c rare
edge a b
edge a c
`)
	p := GreedyPlan(q, st)
	if p.Empty {
		t.Fatal("plan marked empty with all labels populated")
	}
	// Seed order: rare (node 2), then mid (1), then common (0).
	if want := []uint16{2, 1, 0}; !reflect.DeepEqual(p.Nodes, want) {
		t.Fatalf("node order = %v, want %v", p.Nodes, want)
	}
	// Edge 1 (a→c, min=1) before edge 0 (a→b, min=10).
	if want := []uint16{1, 0}; !reflect.DeepEqual(p.Edges, want) {
		t.Fatalf("edge order = %v, want %v", p.Edges, want)
	}
	if err := p.Fits(q); err != nil {
		t.Fatalf("plan does not fit its own pattern: %v", err)
	}
}

func TestGreedyPlanEmpty(t *testing.T) {
	g := testGraph(t)
	st := Collect(g)
	dict := g.Dict()
	q := pattern.New(dict)
	a := q.AddNode("common", "a")
	b := q.AddNode("ghost", "b") // label absent from the graph
	q.MustAddEdge(a, b)
	p := GreedyPlan(q, st)
	if !p.Empty {
		t.Fatal("plan not marked empty for an absent label")
	}
	if p.NodeEst[1] != 0 {
		t.Fatalf("ghost estimate = %d, want 0", p.NodeEst[1])
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g := testGraph(t)
	st := Collect(g)
	q := pattern.MustParse(g.Dict(), "node a common\nnode b rare\nedge a b\nedge b a")
	p := GreedyPlan(q, st)
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Nodes, p.Nodes) || !reflect.DeepEqual(got.Edges, p.Edges) || got.Empty != p.Empty {
		t.Fatalf("round trip mismatch: got %+v, want %+v", got, p)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{2, 0, 0, 0, 0, 0},          // unknown version
		{1, 0xff, 0, 0, 0, 0},       // unknown flags
		{1, 0, 5, 0},                // truncated node order
		{1, 0, 0, 0, 0, 0, 0xba},    // trailing bytes
		{1, 0, 1, 0, 2, 0, 0, 0, 1}, // truncated edge payload
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode(%v) accepted garbage", i, b)
		}
	}
}

func TestFitsRejectsWrongShape(t *testing.T) {
	g := testGraph(t)
	q := pattern.MustParse(g.Dict(), "node a common\nnode b rare\nedge a b")
	cases := []*Plan{
		{Nodes: []uint16{0}, Edges: []uint16{0}},       // too few nodes
		{Nodes: []uint16{0, 0}, Edges: []uint16{0}},    // duplicate node
		{Nodes: []uint16{0, 2}, Edges: []uint16{0}},    // out of range
		{Nodes: []uint16{0, 1}, Edges: nil},            // too few edges
		{Nodes: []uint16{0, 1}, Edges: []uint16{1}},    // edge out of range
		{Nodes: []uint16{0, 1}, Edges: []uint16{0, 0}}, // too many edges
	}
	for i, p := range cases {
		if err := p.Fits(q); err == nil {
			t.Errorf("case %d: Fits accepted malformed plan %+v", i, p)
		}
	}
}

// renamed returns q with node identities permuted by a random
// permutation: same pattern modulo renaming/declaration order.
func renamed(q *pattern.Pattern, rng *rand.Rand) *pattern.Pattern {
	n := q.NumNodes()
	perm := rng.Perm(n)
	out := pattern.New(q.Dict())
	// Node at new position p is old node inv[p].
	inv := make([]int, n)
	for old, p := range perm {
		inv[p] = old
	}
	for p := 0; p < n; p++ {
		out.AddNode(q.LabelName(pattern.QNode(inv[p])), "")
	}
	for u := 0; u < n; u++ {
		for _, w := range q.Succ(pattern.QNode(u)) {
			out.MustAddEdge(pattern.QNode(perm[u]), pattern.QNode(perm[w]))
		}
	}
	return out
}

func TestCanonicalInvariantUnderRenaming(t *testing.T) {
	dict := graph.NewDict()
	samples := []string{
		"node a A\nnode b B\nedge a b",
		"node a A\nnode b B\nnode c C\nedge a b\nedge b c\nedge c a",
		"node a A\nnode b A\nnode c B\nedge a c\nedge b c",
		"node a A\nnode b A\nnode c A\nnode d B\nedge a b\nedge b c\nedge c a\nedge a d",
		"node x L\nnode y L\nedge x y\nedge y x",
		"node a A\nnode b B\nnode c C\nnode d D\nnode e E\nedge a b\nedge a c\nedge b d\nedge c d\nedge d e",
	}
	rng := rand.New(rand.NewSource(42))
	for si, src := range samples {
		q := pattern.MustParse(dict, src)
		base := Canonicalize(q)
		if base.Key == "" {
			t.Fatalf("sample %d: empty canonical key", si)
		}
		for trial := 0; trial < 20; trial++ {
			r := renamed(q, rng)
			got := Canonicalize(r)
			if got.Key != base.Key {
				t.Fatalf("sample %d trial %d: canonical key differs:\n%q\nvs\n%q", si, trial, got.Key, base.Key)
			}
		}
	}
}

func TestCanonicalKeyIsParseFixedPoint(t *testing.T) {
	dict := graph.NewDict()
	q := pattern.MustParse(dict, "node a A\nnode b B\nnode c A\nedge a b\nedge c b\nedge a c")
	c := Canonicalize(q)
	re, err := pattern.Parse(dict, c.Key)
	if err != nil {
		t.Fatalf("canonical key is not valid Parse input: %v\n%s", err, c.Key)
	}
	again := Canonicalize(re)
	if again.Key != c.Key {
		t.Fatalf("canonicalization is not a fixed point:\n%q\nvs\n%q", again.Key, c.Key)
	}
	// The reparsed canonical pattern also String()s back to the key.
	if re.String() != c.Key {
		t.Fatalf("Parse∘String broke on the canonical key:\n%q\nvs\n%q", re.String(), c.Key)
	}
}

func TestCanonicalPermIsConsistent(t *testing.T) {
	dict := graph.NewDict()
	q := pattern.MustParse(dict, "node a A\nnode b B\nnode c A\nedge a b\nedge c b\nedge a c")
	c := Canonicalize(q)
	// Perm must be a permutation, and relabeling q by it must reproduce
	// the key's edge structure.
	if err := checkPerm(toU16(c.Perm), q.NumNodes(), "canon"); err != nil {
		t.Fatal(err)
	}
	re := pattern.MustParse(dict, c.Key)
	for u := 0; u < q.NumNodes(); u++ {
		if re.Label(pattern.QNode(c.Perm[u])) != q.Label(pattern.QNode(u)) {
			t.Fatalf("perm breaks labels at node %d", u)
		}
		for _, w := range q.Succ(pattern.QNode(u)) {
			found := false
			for _, x := range re.Succ(pattern.QNode(c.Perm[u])) {
				if int(x) == c.Perm[w] {
					found = true
				}
			}
			if !found {
				t.Fatalf("perm breaks edge (%d,%d)", u, w)
			}
		}
	}
}

func toU16(xs []int) []uint16 {
	out := make([]uint16, len(xs))
	for i, x := range xs {
		out[i] = uint16(x)
	}
	return out
}

func TestCanonicalFallbackOnSymmetryBlowup(t *testing.T) {
	// A 12-node same-label bidirectional clique: refinement cannot split
	// anything, the search would visit 12! leaves; the cap must trigger
	// the deterministic raw fallback instead.
	dict := graph.NewDict()
	q := pattern.New(dict)
	n := 12
	for i := 0; i < n; i++ {
		q.AddNode("L", "")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				q.MustAddEdge(pattern.QNode(i), pattern.QNode(j))
			}
		}
	}
	c := Canonicalize(q)
	if len(c.Key) < 4 || c.Key[:4] != "raw\n" {
		t.Fatalf("expected raw fallback key, got %q...", c.Key[:20])
	}
	for i, p := range c.Perm {
		if i != p {
			t.Fatal("fallback perm is not the identity")
		}
	}
}
