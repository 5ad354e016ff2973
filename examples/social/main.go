// Social: the paper's motivating scenario at scale — finding potential
// customers in a distributed social/web graph (§1).
//
// We generate a web-scale-ish graph with skewed interest labels, spread
// it over 8 sites at the paper's |Vf| = 25% boundary, and ask a cyclic
// trust-recommendation query. The example contrasts dGPM against the
// naive Match baseline: same answer, but dGPM ships falsified Boolean
// variables while Match ships the entire graph. It compares what each
// ships (DS) and how many messages it takes; the in-process deployment
// has no emulated link cost, so its times say nothing about a network.
//
// Run: go run ./examples/social
package main

import (
	"context"
	"fmt"
	"log"

	"dgs"
)

func main() {
	dict := dgs.NewDict()
	g := dgs.GenWeb(dict, 60_000, 300_000, 7)
	fmt.Println("graph:    ", g)

	// A beer-brand style query over the three most common interest
	// labels: a recommendation cycle with an influencer feeding into it.
	q, err := dgs.ParsePattern(dict, `
node influencer l1
node fan        l0
node foodie     l2
node media      l0
edge influencer fan
edge influencer foodie
edge fan        foodie
edge foodie     media
edge media      fan
`)
	if err != nil {
		log.Fatal(err)
	}

	part, err := dgs.PartitionWith(g, "targetratio", 8, dgs.WithPartitionTarget(0.25), dgs.WithPartitionSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("partition:", part)

	// One deployment serves both algorithms.
	dep, err := dgs.Deploy(part)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	want := dgs.Simulate(q, g)
	fmt.Printf("\ncentralized ground truth: ok=%v pairs=%d\n", want.Ok(), want.NumPairs())

	ds := make(map[dgs.Algorithm]int64)
	for _, algo := range []dgs.Algorithm{dgs.AlgoDGPM, dgs.AlgoMatch} {
		res, err := dep.Query(context.Background(), q, dgs.WithAlgorithm(algo))
		if err != nil {
			log.Fatal(err)
		}
		if !res.Match.Equal(want) {
			log.Fatalf("%s: wrong answer", algo)
		}
		ds[algo] = res.Stats.DataBytes
		fmt.Printf("%-8s DS=%10.2f KB   msgs=%d\n",
			algo, float64(res.Stats.DataBytes)/1024, res.Stats.DataMsgs)
	}
	if ds[dgs.AlgoDGPM] >= ds[dgs.AlgoMatch] {
		log.Fatalf("dGPM shipped %d B, not less than Match's %d B", ds[dgs.AlgoDGPM], ds[dgs.AlgoMatch])
	}
	fmt.Printf("\nboth algorithms agree; dGPM ships %.1f%% of Match's bytes ✓\n",
		100*float64(ds[dgs.AlgoDGPM])/float64(ds[dgs.AlgoMatch]))
}
