package dgs

// Workload generation facade — the graphs and queries of the paper's
// evaluation (§6). See internal/workload for the generator details and
// the internal/bench package comment for the scaled dataset sizes.

import (
	"fmt"

	"dgs/internal/graph"
	"dgs/internal/workload"
)

// GenGraph generates the named workload graph — "web", "citation",
// "synthetic", "tree" or "chain" — the one generator table the CLIs'
// -gen flag resolves against. nodes is |V| (the number of (A,B) pairs
// for "chain": the Fig-2 gadget with its cycle closed, whose edges are
// deterministic, so smoke tests know an edge to delete); edges is
// ignored by "tree" and "chain", seed by "chain".
func GenGraph(dict *Dict, name string, nodes, edges int, seed int64) (*Graph, error) {
	switch name {
	case "web":
		return GenWeb(dict, nodes, edges, seed), nil
	case "citation":
		return GenCitation(dict, nodes, edges, seed), nil
	case "synthetic":
		return GenSynthetic(dict, nodes, edges, seed), nil
	case "tree":
		return GenTree(dict, nodes, seed), nil
	case "chain":
		return GenChain(dict, nodes, true), nil
	}
	return nil, fmt.Errorf("unknown generator %q", name)
}

// ExperimentLabels returns the 15-label alphabet used by the synthetic
// experiments.
func ExperimentLabels() []string { return workload.Labels(15) }

// GenSynthetic generates the paper's synthetic G(|V|, |E|) with labels
// from a 15-symbol alphabet.
func GenSynthetic(dict *Dict, nv, ne int, seed int64) *Graph {
	return &Graph{g: workload.SyntheticDict(dict, nv, ne, workload.Labels(15), seed)}
}

// GenWeb generates the Yahoo-web-graph stand-in (power-law degrees,
// skewed domain labels). Paper scale: (3M, 15M); default benchmarks use
// 1/10 scale.
func GenWeb(dict *Dict, nv, ne int, seed int64) *Graph {
	return &Graph{g: workload.WebDict(dict, nv, ne, seed)}
}

// GenCitation generates the AMiner-citation stand-in — a DAG with
// recency-biased citations. Paper scale: (1.4M, 3M).
func GenCitation(dict *Dict, nv, ne int, seed int64) *Graph {
	return &Graph{g: workload.CitationDict(dict, nv, ne, seed)}
}

// GenTree generates a random rooted labeled tree (dGPMt workloads).
func GenTree(dict *Dict, nv int, seed int64) *Graph {
	return &Graph{g: workload.TreeDict(dict, nv, workload.Labels(15), seed)}
}

// GenChain generates the Fig-2 impossibility gadget: n (Ai,Bi) pairs;
// closed=true adds the cycle-closing edge.
func GenChain(dict *Dict, n int, closed bool) *Graph {
	return &Graph{g: workload.Chain(dict, n, closed)}
}

// ChainQuery returns Q0 = A⇄B of Fig. 2.
func ChainQuery(dict *Dict) *Pattern {
	return &Pattern{p: workload.ChainQuery(dict)}
}

// GenCyclicPattern generates a connected cyclic pattern with nv nodes and
// ne edges over the 15-label alphabet (the Exp-1 query family).
func GenCyclicPattern(dict *Dict, nv, ne int, seed int64) *Pattern {
	return &Pattern{p: workload.CyclicPattern(dict, nv, ne, workload.Labels(15), seed)}
}

// GenCyclicPatternOver generates a cyclic pattern restricted to the first
// k labels of the alphabet. On the Zipf-labeled web workload these are
// the frequent labels, yielding selective-but-nonempty queries like the
// paper's hand-picked cyclic patterns ("domain = '.uk'").
func GenCyclicPatternOver(dict *Dict, nv, ne, k int, seed int64) *Pattern {
	return &Pattern{p: workload.CyclicPattern(dict, nv, ne, workload.Labels(k), seed)}
}

// GenDAGPattern generates a DAG pattern with maximum topological rank
// exactly diam (the Exp-2 query family: Qi with d = i+1).
func GenDAGPattern(dict *Dict, nv, ne, diam int, seed int64) (*Pattern, error) {
	p, err := workload.DAGPattern(dict, nv, ne, diam, workload.Labels(15), seed)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: p}, nil
}

// GenTreePattern generates a rooted tree-shaped pattern.
func GenTreePattern(dict *Dict, nv int, seed int64) *Pattern {
	return &Pattern{p: workload.TreePattern(dict, nv, workload.Labels(15), seed)}
}

// GenUpdateStream draws a random update stream over g: nDel deletions of
// distinct existing edges and nIns insertions of absent pairs, shuffled
// into one sequence for Deployment.Apply.
func GenUpdateStream(g *Graph, nDel, nIns int, seed int64) []EdgeOp {
	return workload.UpdateStream(g.g, nDel, nIns, seed)
}

// BatchOps splits an update stream into consecutive batches of the given
// size.
func BatchOps(ops []EdgeOp, size int) [][]EdgeOp {
	return workload.Batches(ops, size)
}

// WrapGraph adopts an internal graph (used by cmd tools that load DGSG1
// files through the facade).
func wrapGraph(g *graph.Graph) *Graph { return &Graph{g: g} }
