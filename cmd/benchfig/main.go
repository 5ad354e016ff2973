// Command benchfig regenerates the paper's evaluation figures
// (Fig. 6(a)–6(p) of "Distributed Graph Simulation: Impossibility and
// Possibility", VLDB 2014) on the simulated cluster and prints the data
// series as text tables.
//
// Usage:
//
//	benchfig -fig 6a            # one panel (its sibling panel comes free)
//	benchfig -group exp1-F      # one experiment group
//	benchfig -all               # all 16 panels
//	benchfig -all -scale 0.2    # smaller datasets (faster)
//	benchfig -all -queries 5    # average over more random queries
//
// Beyond the paper's figures, the updates/partition/serving groups
// measure the repo's extensions (incremental maintenance, partitioner
// quality, gateway QPS+p99+cache hit rate);
// -json records any run as a BENCH_*.json artifact:
//
//	benchfig -group serving -json BENCH_SERVING.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dgs/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure panel to regenerate (6a..6p)")
		group    = flag.String("group", "", "experiment group to regenerate")
		all      = flag.Bool("all", false, "regenerate every figure")
		scale    = flag.Float64("scale", 1, "dataset size multiplier")
		queries  = flag.Int("queries", 2, "random queries averaged per point")
		seed     = flag.Int64("seed", 1, "random seed")
		jsonPath = flag.String("json", "", "also write the produced figures as JSON to this file (BENCH_*.json recording)")
		partList = flag.String("part", "", "comma-separated partitioner strategies for the partition group (default: random,blocks,ldg,fennel; see dgsrun -part for the registry)")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Queries: *queries, Seed: *seed}
	if *partList != "" {
		for _, s := range strings.Split(*partList, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.Partitioners = append(cfg.Partitioners, s)
			}
		}
	}
	var produced []*bench.Figure
	switch {
	case *all:
		for _, g := range bench.Groups() {
			produced = append(produced, runGroup(g, cfg)...)
		}
	case *group != "":
		produced = runGroup(*group, cfg)
	case *fig != "":
		figs, err := bench.RunFigure(*fig, cfg)
		if err != nil {
			fail(err)
		}
		print(figs)
		produced = figs
	default:
		fmt.Fprintln(os.Stderr, "usage: benchfig -fig 6a | -group exp1-F | -all")
		fmt.Fprintln(os.Stderr, "figures:", bench.Figures())
		fmt.Fprintln(os.Stderr, "groups: ", bench.Groups())
		os.Exit(2)
	}
	if *jsonPath != "" {
		record := struct {
			Scale   float64         `json:"scale"`
			Queries int             `json:"queries"`
			Seed    int64           `json:"seed"`
			Figures []*bench.Figure `json:"figures"`
		}{*scale, *queries, *seed, produced}
		blob, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("# wrote %s\n", *jsonPath)
	}
}

func runGroup(name string, cfg bench.Config) []*bench.Figure {
	start := time.Now()
	figs, err := bench.RunGroup(name, cfg)
	if err != nil {
		fail(err)
	}
	print(figs)
	fmt.Printf("# group %s completed in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	return figs
}

func print(figs []*bench.Figure) {
	for _, f := range figs {
		fmt.Println(f.Table())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchfig:", err)
	os.Exit(1)
}
