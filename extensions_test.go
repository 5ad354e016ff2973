package dgs

import (
	"context"
	"testing"
)

// TestIncrementalFacade drives the public incremental-maintenance path,
// Deployment.Watch kept current by Apply, on the smallest case: one edge,
// its deletion, and a second deletion of the same edge.
func TestIncrementalFacade(t *testing.T) {
	ctx := context.Background()
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
	part, err := PartitionWith(g, "blocks", 2)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Current().Ok() {
		t.Fatal("initial match expected")
	}
	st, err := dep.Apply(ctx, []EdgeOp{DeleteOp(va, vb)})
	if err != nil {
		t.Fatal(err)
	}
	if w.Current().Ok() {
		t.Fatal("match must vanish after deletion")
	}
	if st.Reevaluated != 0 {
		t.Fatalf("a deletion-only batch re-evaluated %d standing queries; it must refine them incrementally", st.Reevaluated)
	}
	if _, err := dep.Apply(ctx, []EdgeOp{DeleteOp(va, vb)}); err == nil {
		t.Fatal("double delete must error")
	}
}

func TestIsDAGDistributedFacade(t *testing.T) {
	dict := NewDict()
	cyc := GenChain(dict, 8, true)
	part, err := PartitionWith(cyc, "chain", 8)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := IsDAGDistributed(part); ok {
		t.Fatal("closed chain is cyclic")
	}
	dag := GenCitation(dict, 500, 1200, 1)
	part2, err := PartitionWith(dag, "random", 4, WithPartitionSeed(1))
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
	part, err := PartitionWith(g, "random", 4, WithPartitionSeed(2))
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
