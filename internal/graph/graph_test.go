package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func buildDiamond(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	a := b.AddNode("A")
	x := b.AddNode("B")
	y := b.AddNode("B")
	z := b.AddNode("C")
	b.AddEdge(a, x)
	b.AddEdge(a, y)
	b.AddEdge(x, z)
	b.AddEdge(y, z)
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got |V|=%d |E|=%d, want 4,4", g.NumNodes(), g.NumEdges())
	}
	if g.Size() != 8 {
		t.Fatalf("Size = %d, want 8", g.Size())
	}
	if g.LabelName(0) != "A" || g.LabelName(3) != "C" {
		t.Fatalf("labels wrong: %q %q", g.LabelName(0), g.LabelName(3))
	}
	if got := g.Succ(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Succ(0) = %v", got)
	}
	if g.OutDegree(3) != 0 {
		t.Fatalf("OutDegree(3) = %d", g.OutDegree(3))
	}
	if !g.HasEdge(1, 3) || g.HasEdge(3, 1) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode("A")
	w := b.AddNode("A")
	for i := 0; i < 5; i++ {
		b.AddEdge(v, w)
	}
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edges not coalesced: %d", g.NumEdges())
	}
}

func TestBuilderBadEdge(t *testing.T) {
	b := NewBuilder()
	b.AddNode("A")
	b.AddEdge(0, 7)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for dangling edge")
	}
}

func TestReverse(t *testing.T) {
	g := buildDiamond(t)
	g.EnsureReverse()
	if got := g.Pred(3); len(got) != 2 {
		t.Fatalf("Pred(3) = %v", got)
	}
	if g.InDegree(0) != 0 || g.InDegree(3) != 2 {
		t.Fatal("InDegree wrong")
	}
	// Reverse must contain exactly the same edge set.
	var fwd, rev [][2]NodeID
	g.Edges(func(v, w NodeID) bool { fwd = append(fwd, [2]NodeID{v, w}); return true })
	for v := 0; v < g.NumNodes(); v++ {
		for _, p := range g.Pred(NodeID(v)) {
			rev = append(rev, [2]NodeID{p, NodeID(v)})
		}
	}
	sortEdges := func(e [][2]NodeID) {
		sort.Slice(e, func(i, j int) bool {
			if e[i][0] != e[j][0] {
				return e[i][0] < e[j][0]
			}
			return e[i][1] < e[j][1]
		})
	}
	sortEdges(fwd)
	sortEdges(rev)
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("forward and reverse edge sets differ:\n%v\n%v", fwd, rev)
	}
}

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("x")
	b := d.Intern("x")
	if a != b {
		t.Fatal("intern not idempotent")
	}
	if d.Name(a) != "x" {
		t.Fatal("name lookup broken")
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("lookup invented a label")
	}
	if d.Len() != 2 { // reserved + "x"
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Name(9999) != "" {
		t.Fatal("out-of-range Name should be empty")
	}
}

func randomGraph(r *rand.Rand, n, m, labels int) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + r.Intn(labels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
	return b.MustBuild()
}

func TestSCCOnCycleAndChain(t *testing.T) {
	// Cycle of 5 -> one SCC.
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode("A")
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%5))
	}
	g := b.MustBuild()
	comp, n := SCC(g)
	if n != 1 {
		t.Fatalf("cycle SCC count = %d", n)
	}
	for _, c := range comp {
		if c != comp[0] {
			t.Fatal("cycle nodes in different components")
		}
	}
	if IsDAG(g) {
		t.Fatal("cycle reported as DAG")
	}

	// Chain of 5 -> 5 SCCs, a DAG.
	b = NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode("A")
	}
	for i := 0; i < 4; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	g = b.MustBuild()
	if _, n := SCC(g); n != 5 {
		t.Fatalf("chain SCC count = %d", n)
	}
	if !IsDAG(g) {
		t.Fatal("chain not reported as DAG")
	}
}

func TestSCCSelfLoop(t *testing.T) {
	b := NewBuilder()
	b.AddNode("A")
	b.AddEdge(0, 0)
	g := b.MustBuild()
	if IsDAG(g) {
		t.Fatal("self-loop reported as DAG")
	}
}

// Property: SCC components agree with mutual reachability on small graphs.
func TestSCCMatchesReachability(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 2 + r.Intn(10)
		g := randomGraph(r, n, r.Intn(3*n), 2)
		comp, _ := SCC(g)
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			BFSFrom(g, NodeID(i), func(v NodeID, _ int) bool {
				reach[i][v] = true
				return true
			})
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				mutual := reach[i][j] && reach[j][i]
				same := comp[i] == comp[j]
				if mutual != same {
					t.Fatalf("iter %d: nodes %d,%d mutual=%v same-comp=%v", iter, i, j, mutual, same)
				}
			}
		}
	}
}

func TestTopoOrder(t *testing.T) {
	g := buildDiamond(t)
	order, ok := TopoOrder(g)
	if !ok {
		t.Fatal("diamond is a DAG")
	}
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	g.Edges(func(v, w NodeID) bool {
		if pos[v] >= pos[w] {
			t.Fatalf("edge (%d,%d) violates topo order", v, w)
		}
		return true
	})
	// Cyclic graph -> not ok.
	b := NewBuilder()
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	if _, ok := TopoOrder(b.MustBuild()); ok {
		t.Fatal("cycle got a topo order")
	}
}

func TestIsTree(t *testing.T) {
	b := NewBuilder()
	r0 := b.AddNode("R")
	c1 := b.AddNode("A")
	c2 := b.AddNode("A")
	b.AddEdge(r0, c1)
	b.AddEdge(r0, c2)
	roots, ok := IsTree(b.MustBuild())
	if !ok || len(roots) != 1 || roots[0] != r0 {
		t.Fatalf("tree not recognized: roots=%v ok=%v", roots, ok)
	}
	// Diamond: z has in-degree 2.
	if _, ok := IsTree(buildDiamond(t)); ok {
		t.Fatal("diamond recognized as tree")
	}
	// 2-cycle is not a tree even with in-degree 1 everywhere.
	b = NewBuilder()
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	if _, ok := IsTree(b.MustBuild()); ok {
		t.Fatal("cycle recognized as tree")
	}
}

func TestBFSDepths(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("A")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 2) // shortcut
	g := b.MustBuild()
	depth := map[NodeID]int{}
	BFSFrom(g, 0, func(v NodeID, d int) bool { depth[v] = d; return true })
	want := map[NodeID]int{0: 0, 1: 1, 2: 1, 3: 2}
	if !reflect.DeepEqual(depth, want) {
		t.Fatalf("depths = %v, want %v", depth, want)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 20; iter++ {
		g := randomGraph(r, 1+r.Intn(40), r.Intn(120), 4)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != EncodedSize(g) {
			t.Fatalf("EncodedSize=%d actual=%d", EncodedSize(g), buf.Len())
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraph(g, g2) {
			t.Fatal("binary round trip changed the graph")
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Fatal("expected error")
	}
}

func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.LabelName(NodeID(v)) != b.LabelName(NodeID(v)) {
			return false
		}
		if !reflect.DeepEqual(a.Succ(NodeID(v)), b.Succ(NodeID(v))) {
			if len(a.Succ(NodeID(v))) != 0 || len(b.Succ(NodeID(v))) != 0 {
				return false
			}
		}
	}
	return true
}

// Property-based: round trip preserves arbitrary small graphs.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, n8, m8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(n8)%30
		m := int(m8) % 90
		g := randomGraph(r, n, m, 3)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return sameGraph(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
