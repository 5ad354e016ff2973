//dgsvet:deterministic

// Package plan is the query-planning layer between pattern parsing and
// distributed evaluation. It turns one cheap per-deployment statistic —
// the label populations the driver already holds — into a Plan: an
// Empty verdict that short-circuits queries whose label has zero
// occurrences in the deployed graph before any session is opened, and
// per-node candidate estimates for explain output.
//
// A plan orders nothing. dGPM's counter fixpoint is confluent: its kill
// set is the complement of the unique maximum simulation, and every
// killed variable walks its predecessors once per in-edge whatever the
// order, so no evaluation order changes the relation, the shipped
// falsifications, the rounds or the work done. Nothing of a plan
// crosses the wire. There is one planner, GreedyPlan, a pure function
// of the pattern and the stats.
//
// The package also defines the canonical form of a pattern (canon.go):
// a deterministic renaming under which equivalent-modulo-renaming
// patterns render to one string, used by the serve cache and by
// standing-query sharing.
package plan

import (
	"dgs/internal/graph"
	"dgs/internal/pattern"
)

// Stats are the per-deployment statistics plans are built from. They
// are collected once at Deploy time and stay valid for the deployment's
// lifetime: Apply mutates edges only — the node set and node labels of
// a deployed graph are fixed — so label populations never change.
type Stats struct {
	// LabelNodes[l] counts the graph nodes carrying label l.
	LabelNodes []uint32
}

// Collect counts the nodes of each label in g: O(|V|), no allocation
// beyond the per-label array.
func Collect(g *graph.Graph) *Stats {
	labels := g.Labels()
	maxL := graph.Label(0)
	for _, l := range labels {
		maxL = max(maxL, l)
	}
	st := &Stats{LabelNodes: make([]uint32, int(maxL)+1)}
	for _, l := range labels {
		st.LabelNodes[l]++
	}
	return st
}

// Candidates returns the number of graph nodes carrying label l — the
// initial candidate-set size of a query node with that label (initial
// alive state is exactly label consistency).
func (st *Stats) Candidates(l graph.Label) uint32 {
	if int(l) >= len(st.LabelNodes) {
		return 0
	}
	return st.LabelNodes[l]
}

// Plan is the planner's verdict on one pattern.
type Plan struct {
	// Empty reports that some query node's label has zero occurrences
	// in the deployed graph: the simulation is empty, no evaluation —
	// and no wire traffic — is needed.
	Empty bool
	// NodeEst is the candidate count per query node in declaration
	// order: the graph nodes carrying its label (explain output).
	NodeEst []uint32
}

// GreedyPlan plans q against st: each query node's estimate is its
// label's population, and the verdict is Empty when any estimate is
// zero. O(|Vq|) over numbers already in hand — no histograms, no
// sampling.
func GreedyPlan(q *pattern.Pattern, st *Stats) *Plan {
	p := &Plan{NodeEst: make([]uint32, q.NumNodes())}
	for u := range p.NodeEst {
		est := st.Candidates(q.Label(pattern.QNode(u)))
		p.NodeEst[u] = est
		if est == 0 {
			p.Empty = true
		}
	}
	return p
}
