package dgs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

const testQuery = `
node a l0
node b l1
node c l2
edge a b
edge b c
edge c a
`

func testWorld(t testing.TB, algoFriendly bool) (*Dict, *Graph, *Pattern, *Partition) {
	t.Helper()
	dict := NewDict()
	g := GenSynthetic(dict, 2000, 8000, 42)
	q, err := ParsePattern(dict, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionTargetRatio(g, 4, ByVf, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	_ = algoFriendly
	return dict, g, q, part
}

// queryOnce answers q on a throwaway in-process deployment of part.
func queryOnce(part *Partition, q *Pattern, opts ...QueryOption) (*Result, error) {
	dep, err := Deploy(part)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	return dep.Query(context.Background(), q, opts...)
}

func TestAllAlgorithmsAgreeOnGeneral(t *testing.T) {
	_, g, q, part := testWorld(t, true)
	want := Simulate(q, g)
	for _, algo := range []Algorithm{AlgoDGPM, AlgoDGPMNoOpt, AlgoMatch, AlgoDisHHK, AlgoDMes} {
		res, err := queryOnce(part, q, WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !res.Match.Equal(want) {
			t.Fatalf("%s: result differs from centralized", algo)
		}
	}
}

func TestDGPMdOnCitation(t *testing.T) {
	dict := NewDict()
	g := GenCitation(dict, 3000, 9000, 5)
	if !g.IsDAG() {
		t.Fatal("citation graph must be a DAG")
	}
	q, err := GenDAGPattern(dict, 9, 13, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionTargetRatio(g, 4, ByVf, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := Simulate(q, g)
	res, err := queryOnce(part, q, WithAlgorithm(AlgoDGPMd), WithGraphIsDAG())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(want) {
		t.Fatal("dGPMd differs from centralized")
	}
}

func TestDGPMtOnTree(t *testing.T) {
	dict := NewDict()
	g := GenTree(dict, 3000, 5)
	if !g.IsTree() {
		t.Fatal("tree generator must produce a tree")
	}
	q := GenTreePattern(dict, 4, 9)
	part, err := PartitionTree(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := Simulate(q, g)
	res, err := queryOnce(part, q, WithAlgorithm(AlgoDGPMt))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(want) {
		t.Fatal("dGPMt differs from centralized")
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("dGPMt rounds = %d", res.Stats.Rounds)
	}
}

func TestRunBooleanChain(t *testing.T) {
	dict := NewDict()
	q := ChainQuery(dict)
	closed := GenChain(dict, 12, true)
	broken := GenChain(dict, 12, false)
	pc, err := PartitionChain(closed, 12)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PartitionChain(broken, 12)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := queryOnce(pc, q)
	if err != nil || !resC.Match.Ok() {
		t.Fatalf("closed chain must match (err=%v)", err)
	}
	resB, err := queryOnce(pb, q)
	if err != nil || resB.Match.Ok() {
		t.Fatalf("broken chain must not match (err=%v)", err)
	}
	if resB.Stats.DataMsgs < 11 {
		t.Fatalf("falsification must travel the chain: %d msgs", resB.Stats.DataMsgs)
	}
}

func TestGraphBuilderAndIO(t *testing.T) {
	dict := NewDict()
	b := NewGraphBuilder(dict)
	v := b.AddNode("X")
	w := b.AddNode("Y")
	b.AddEdge(v, w)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || g.Size() != 3 {
		t.Fatal("builder shape wrong")
	}
	if g.LabelName(v) != "X" {
		t.Fatal("label wrong")
	}
	if len(g.Succ(v)) != 1 || g.Succ(v)[0] != w {
		t.Fatal("succ wrong")
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 2 || g2.LabelName(0) != "X" {
		t.Fatal("round trip broken")
	}
	if !strings.Contains(g.String(), "|V|=2") {
		t.Fatalf("String = %q", g.String())
	}
}

// A graph loaded from a DGSG1 file hands back the dictionary its label
// ids live in: every node's label name resolves, through
// ReadGraph(...).Dict(), to the id the deployed fragments carry, so a
// pattern parsed against it — labels deliberately not in the graph's
// first-use order — answers exactly like the original world. Parsing
// against a fresh dictionary (the dgsrun/dgsgw -graph bug) would intern
// l9 as id 0 and match the wrong nodes.
func TestReadGraphDictMatchesFragments(t *testing.T) {
	dict := NewDict()
	g := GenWeb(dict, 1500, 7000, 1)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionBlocks(g2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range part.fr.Frags {
		for v, l := range f.Labels {
			id, ok := g2.Dict().Lookup(g2.LabelName(v))
			if !ok || id != l {
				t.Fatalf("fragment %d node %d carries label id %d, the loaded dictionary resolves %q to %d (found=%v)",
					f.ID, v, l, g2.LabelName(v), id, ok)
			}
		}
	}
	const src = "node a l9\nnode b l0\nnode c l4\nedge a b\nedge b c\nedge c b"
	q, err := ParsePattern(dict, src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParsePattern(g2.Dict(), src)
	if err != nil {
		t.Fatal(err)
	}
	want := Simulate(q, g)
	if !want.Ok() {
		t.Fatal("fixture pattern must match the generated graph")
	}
	res, err := queryOnce(part, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(want) {
		t.Fatalf("loaded-graph answer has %d pairs, the original world %d", res.Match.NumPairs(), want.NumPairs())
	}
}

func TestPatternAccessors(t *testing.T) {
	dict := NewDict()
	q, err := ParsePattern(dict, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 3 || q.NumEdges() != 3 || q.Size() != 6 {
		t.Fatal("pattern shape wrong")
	}
	if q.IsDAG() {
		t.Fatal("triangle is cyclic")
	}
	if q.Diameter() != 1 {
		t.Fatalf("Diameter = %d", q.Diameter())
	}
	if q.NodeName(0) != "a" {
		t.Fatal("NodeName wrong")
	}
	if _, err := ParsePattern(dict, "node a"); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if !strings.Contains(q.String(), "edge a b") {
		t.Fatal("String missing edges")
	}
}

func TestPartitionAccessors(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 500, 2000, 1)
	part, err := PartitionRandom(g, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumFragments() != 5 {
		t.Fatal("|F| wrong")
	}
	if part.Vf() == 0 || part.Ef() == 0 {
		t.Fatal("random partition of a connected-ish graph has a boundary")
	}
	if part.VfRatio() <= 0 || part.EfRatio() <= 0 {
		t.Fatal("ratios must be positive")
	}
	if part.MaxFragmentSize() == 0 {
		t.Fatal("Fm wrong")
	}
	if !strings.Contains(part.String(), "|F|=5") {
		t.Fatal("String wrong")
	}
	if _, err := PartitionRandom(g, 0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestPartitionFromAssign(t *testing.T) {
	dict := NewDict()
	b := NewGraphBuilder(dict)
	b.AddNode("A")
	b.AddNode("A")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionFromAssign(g, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if part.NumFragments() != 2 {
		t.Fatal("wrong |F|")
	}
	if _, err := PartitionFromAssign(g, []int32{0}); err == nil {
		t.Fatal("short assign accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgoDGPM: "dGPM", AlgoDGPMNoOpt: "dGPMNOpt", AlgoDGPMd: "dGPMd",
		AlgoDGPMt: "dGPMt", AlgoMatch: "Match", AlgoDisHHK: "disHHK", AlgoDMes: "dMes",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", a, a.String())
		}
	}
	if Algorithm(99).String() != "unknown" {
		t.Fatal("unknown algorithm name")
	}
}

// ParseAlgorithm inverts String — for the figure name and for the
// lowercase name the CLIs and the gateway accept — on every constant,
// and AlgorithmNames lists exactly those lowercase names.
func TestParseAlgorithmRoundTrip(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range AlgorithmNames() {
		listed[n] = true
	}
	if len(listed) != len(confAlgos) {
		t.Fatalf("AlgorithmNames() = %v, want %d distinct names", AlgorithmNames(), len(confAlgos))
	}
	for _, a := range confAlgos {
		lower := strings.ToLower(a.String())
		for _, name := range []string{a.String(), lower} {
			if got, ok := ParseAlgorithm(name); !ok || got != a {
				t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, ok, a)
			}
		}
		if !listed[lower] {
			t.Fatalf("AlgorithmNames() = %v lacks %q", AlgorithmNames(), lower)
		}
	}
	for _, name := range []string{"", "unknown", "dgpmx"} {
		if a, ok := ParseAlgorithm(name); ok {
			t.Fatalf("ParseAlgorithm(%q) accepted as %v", name, a)
		}
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	_, _, q, part := testWorld(t, true)
	if _, err := queryOnce(part, q, WithAlgorithm(Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestOptionsAblation(t *testing.T) {
	_, g, q, part := testWorld(t, true)
	want := Simulate(q, g)
	res, err := queryOnce(part, q, WithPushDisabled())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(want) {
		t.Fatal("no-push ablation differs")
	}
	res2, err := queryOnce(part, q, WithPushTheta(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Match.Equal(want) {
		t.Fatal("eager-push differs")
	}
}

func TestMatchAccessors(t *testing.T) {
	_, g, q, _ := testWorld(t, true)
	m := Simulate(q, g)
	if m.Ok() {
		if m.NumPairs() == 0 {
			t.Fatal("Ok but no pairs")
		}
		u0 := m.MatchesOf(0)
		if len(u0) == 0 || !m.Contains(0, u0[0]) {
			t.Fatal("MatchesOf/Contains inconsistent")
		}
	}
	if m.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPartitionWithAPI(t *testing.T) {
	dict := NewDict()
	g := GenWeb(dict, 2000, 8000, 9)
	names := Partitioners()
	if len(names) != 7 {
		t.Fatalf("Partitioners() = %v, want 7 strategies", names)
	}
	//lint:allow regconsistent — probes the unknown-strategy error path
	if _, err := PartitionWith(g, "no-such", 4); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	rnd, err := PartitionWith(g, "random", 16, WithPartitionSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := PartitionWith(g, "ldg", 16, WithPartitionSeed(3), WithBalanceSlack(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if ldg.Strategy() != "ldg" || rnd.Strategy() != "random" {
		t.Fatalf("strategies not stamped: %q %q", ldg.Strategy(), rnd.Strategy())
	}
	if ldg.BuildTime() <= 0 {
		t.Fatal("build time not stamped")
	}
	if ldg.Ef() >= rnd.Ef() {
		t.Fatalf("ldg cut %d not below random cut %d on a locality graph", ldg.Ef(), rnd.Ef())
	}
	sizes := ldg.FragmentSizes()
	if cap := (2000*11 + 159) / (10 * 16); sizes[0] > cap { // ceil(1.1·|V|/n)
		t.Fatalf("ldg balance slack violated: max %d > cap %d", sizes[0], cap)
	}
	// The wrappers route through the registry and stamp metadata too.
	tr, err := PartitionTargetRatio(g, 8, ByVf, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy() != "targetratio" {
		t.Fatalf("wrapper strategy = %q", tr.Strategy())
	}
}
