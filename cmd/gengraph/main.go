// Command gengraph generates workload data graphs (the paper's Yahoo /
// Citation / synthetic stand-ins; see the internal/bench package comment) and saves them in the
// DGSG1 binary format for dgsrun -graph.
//
// Usage:
//
//	gengraph -gen web -nodes 300000 -edges 1500000 -o web.dgsg
//	gengraph -gen citation -nodes 140000 -edges 300000 -o cit.dgsg
package main

import (
	"flag"
	"fmt"
	"os"

	"dgs"
)

func main() {
	var (
		gen   = flag.String("gen", "web", "generator: web|citation|synthetic|tree|chain")
		nodes = flag.Int("nodes", 300000, "|V|")
		edges = flag.Int("edges", 1500000, "|E| (ignored for tree/chain)")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("o", "graph.dgsg", "output file")
	)
	flag.Parse()

	g, err := dgs.GenGraph(dgs.NewDict(), *gen, *nodes, *edges, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	if err := g.WriteBinary(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: %v\n", *out, g)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gengraph:", err)
	os.Exit(1)
}
