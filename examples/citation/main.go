// Citation: DAG analytics with dGPMd (§5.1).
//
// Citation networks are DAGs (papers cite older papers), the setting of
// the paper's Exp-2. dGPMd schedules falsification shipping by the
// topological rank of query nodes: at most d batched waves instead of an
// unbounded fixpoint exchange, making it parallel scalable in response
// time for a fixed number of fragments (Theorem 3).
//
// Run: go run ./examples/citation
package main

import (
	"context"
	"fmt"
	"log"

	"dgs"
)

func main() {
	dict := dgs.NewDict()
	g := dgs.GenCitation(dict, 28_000, 60_000, 11)
	fmt.Println("citation graph:", g, "DAG:", g.IsDAG())

	part, err := dgs.PartitionWith(g, "targetratio", 8, dgs.WithPartitionTarget(0.25), dgs.WithPartitionSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partition:     ", part)

	// Fragment the citation DAG once; the deployment defaults every
	// query to dGPMd with the DAG-G assertion.
	dep, err := dgs.Deploy(part, dgs.WithQueryDefaults(
		dgs.WithAlgorithm(dgs.AlgoDGPMd), dgs.WithGraphIsDAG()))
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()

	// DAG queries of growing diameter: "papers whose citation chain
	// reaches d hops deep through specific venues".
	for _, d := range []int{2, 4, 6} {
		q, err := dgs.GenDAGPattern(dict, 9, 13, d, int64(40+d))
		if err != nil {
			log.Fatal(err)
		}
		res, err := dep.Query(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Match.Equal(dgs.Simulate(q, g)) {
			log.Fatal("dGPMd differs from centralized simulation")
		}
		fmt.Printf("d=%d: ok=%-5v pairs=%-6d PT=%8v DS=%8.2f KB waves(messages)=%d\n",
			d, res.Match.Ok(), res.Match.NumPairs(), res.Stats.Wall.Round(0),
			float64(res.Stats.DataBytes)/1024, res.Stats.DataMsgs)
	}

	// A cyclic query on a DAG needs no distributed work at all: Tarjan on
	// Q decides Q(G) = ∅ (§5.1 "DAG G").
	cyc, err := dgs.ParsePattern(dict, "node a l0\nnode b l1\nedge a b\nedge b a")
	if err != nil {
		log.Fatal(err)
	}
	res, err := dep.Query(ctx, cyc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cyclic Q on DAG G: ok=%v with %d bytes shipped (shortcut) ✓\n",
		res.Match.Ok(), res.Stats.DataBytes)
}
