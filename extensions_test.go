package dgs

import "testing"

func TestSimulateDualSubsetOfPlain(t *testing.T) {
	_, g, q, _ := testWorld(t, true)
	plain := Simulate(q, g)
	dual := SimulateDual(q, g)
	for u := 0; u < q.NumNodes(); u++ {
		for _, v := range dual.MatchesOf(QNode(u)) {
			if !plain.Contains(QNode(u), v) {
				t.Fatalf("dual pair (u%d,%d) not in plain simulation", u, v)
			}
		}
	}
}

func TestIncrementalFacade(t *testing.T) {
	dict := NewDict()
	b := NewGraphBuilder(dict)
	va := b.AddNode("A")
	vb := b.AddNode("B")
	b.AddEdge(va, vb)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParsePattern(dict, "node a A\nnode b B\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(q, g)
	if !inc.Current().Ok() {
		t.Fatal("initial match expected")
	}
	if err := inc.DeleteEdge(va, vb); err != nil {
		t.Fatal(err)
	}
	if inc.Current().Ok() {
		t.Fatal("match must vanish after deletion")
	}
	if inc.Affected() == 0 {
		t.Fatal("AFF must be positive")
	}
	if err := inc.DeleteEdge(va, vb); err == nil {
		t.Fatal("double delete must error")
	}
}

func TestIsDAGDistributedFacade(t *testing.T) {
	dict := NewDict()
	cyc := GenChain(dict, 8, true)
	part, err := PartitionChain(cyc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := IsDAGDistributed(part); ok {
		t.Fatal("closed chain is cyclic")
	}
	dag := GenCitation(dict, 500, 1200, 1)
	part2, err := PartitionRandom(dag, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok, st := IsDAGDistributed(part2)
	if !ok {
		t.Fatal("citation graph is a DAG")
	}
	if st.Rounds != 1 {
		t.Fatalf("one-round protocol reported %d rounds", st.Rounds)
	}
}

// dGPMd without the GraphIsDAG assertion must use the distributed check
// and still answer cyclic queries on DAGs with ∅.
func TestDGPMdAutoDAGCheck(t *testing.T) {
	dict := NewDict()
	g := GenCitation(dict, 1000, 2200, 2)
	q, err := ParsePattern(dict, "node a l0\nnode b l1\nedge a b\nedge b a")
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionRandom(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := queryOnce(part, q, WithAlgorithm(AlgoDGPMd)) // no WithGraphIsDAG assertion
	if err != nil {
		t.Fatal(err)
	}
	if res.Match.Ok() {
		t.Fatal("cyclic Q on a DAG must be empty")
	}
	if res.Stats.DataBytes == 0 {
		t.Fatal("the distributed DAG check must have shipped summaries")
	}
}
