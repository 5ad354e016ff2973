//dgsvet:deterministic

// Package plan is the query-planning layer between pattern parsing and
// distributed evaluation. It turns cheap per-deployment statistics
// (label frequencies and degree summaries the driver already holds)
// into an evaluation Plan: a seed order that starts from the rarest
// label, a query-edge order ascending in estimated selectivity, and an
// Empty verdict that short-circuits queries whose label has zero
// occurrences in the deployed graph before any session is opened.
//
// Plans are advisory: dGPM's counter fixpoint is confluent, so any
// evaluation order reaches the same unique maximum simulation and the
// same termination certificate. A site without a plan evaluates in
// declaration order with identical results; a plan only reorders work
// so cheap falsifications happen — and ship — first. There is one
// planner, GreedyPlan, a pure function of the pattern and the stats.
//
// The package also defines the canonical form of a pattern (canon.go):
// a deterministic renaming under which equivalent-modulo-renaming
// patterns render to one string, used by the serve cache and by
// standing-query sharing.
package plan

import (
	"fmt"
	"sort"

	"dgs/internal/graph"
	"dgs/internal/pattern"
)

// Stats are the per-deployment selectivity statistics plans are built
// from. They are collected once at Deploy time and stay valid for the
// deployment's lifetime: Apply mutates edges only — the node set and
// node labels of a deployed graph are fixed — so label populations
// never change, and the degree sums remain an adequate work proxy.
type Stats struct {
	// Nodes is |V| of the deployed graph.
	Nodes int
	// LabelNodes[l] counts the graph nodes carrying label l.
	LabelNodes []uint32
	// LabelOut[l] sums the out-degrees of the nodes carrying label l —
	// the number of adjacency entries a per-edge counter pass over that
	// label's candidates scans.
	LabelOut []uint64
}

// Collect scans g once and returns its planning statistics: O(|V|),
// no allocation beyond the two per-label arrays.
func Collect(g *graph.Graph) *Stats {
	n := g.NumNodes()
	st := &Stats{Nodes: n}
	labels := g.Labels()
	maxL := graph.Label(0)
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	st.LabelNodes = make([]uint32, int(maxL)+1)
	st.LabelOut = make([]uint64, int(maxL)+1)
	for v := 0; v < n; v++ {
		l := labels[v]
		st.LabelNodes[l]++
		st.LabelOut[l] += uint64(g.OutDegree(graph.NodeID(v)))
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

// OutSum returns the summed out-degree over nodes carrying label l.
func (st *Stats) OutSum(l graph.Label) uint64 {
	if int(l) >= len(st.LabelOut) {
		return 0
	}
	return st.LabelOut[l]
}

// Plan is an evaluation plan for one pattern. Node and edge indices
// refer to the pattern's declaration order; the edge enumeration is the
// one every Engine uses: for u ascending, the edges (u, q.Succ(u)[j])
// in succ-slice order.
type Plan struct {
	// Empty reports that some query node's label has zero occurrences
	// in the deployed graph: the simulation is empty, no evaluation —
	// and no wire traffic — is needed.
	Empty bool
	// Nodes lists every query node, rarest label first: the order in
	// which seed falsification scans run.
	Nodes []uint16
	// Edges lists every query-edge index, ascending estimated
	// selectivity: the order counter initialization and falsification
	// propagation visit query edges.
	Edges []uint16
	// NodeEst is the estimated candidate count per query node in
	// declaration order (for explain output; not shipped on the wire).
	NodeEst []uint32
}

// Fits checks the plan against a pattern's shape: both index lists must
// be permutations of the pattern's node/edge index ranges. Sites
// validate received plans with it before trusting the orders.
func (p *Plan) Fits(q *pattern.Pattern) error {
	if err := checkPerm(p.Nodes, q.NumNodes(), "node"); err != nil {
		return err
	}
	return checkPerm(p.Edges, q.NumEdges(), "edge")
}

func checkPerm(xs []uint16, n int, what string) error {
	if len(xs) != n {
		return fmt.Errorf("plan: %s order has %d entries, pattern has %d", what, len(xs), n)
	}
	seen := make([]bool, n)
	for _, x := range xs {
		if int(x) >= n || seen[x] {
			return fmt.Errorf("plan: %s order is not a permutation of 0..%d", what, n-1)
		}
		seen[x] = true
	}
	return nil
}

// GreedyPlan is the stats-free-infrastructure greedy planner: node
// selectivity is the label's candidate population, edge selectivity the
// smaller endpoint population (the counter that can exhaust first),
// with the parent label's adjacency volume as the work tiebreak.
// Planning is O(|Q| log |Q|) over numbers already in hand — no
// histograms, no sampling.
func GreedyPlan(q *pattern.Pattern, st *Stats) *Plan {
	nq := q.NumNodes()
	p := &Plan{NodeEst: make([]uint32, nq)}
	for u := 0; u < nq; u++ {
		est := st.Candidates(q.Label(pattern.QNode(u)))
		p.NodeEst[u] = est
		if est == 0 {
			p.Empty = true
		}
	}

	p.Nodes = make([]uint16, nq)
	for u := range p.Nodes {
		p.Nodes[u] = uint16(u)
	}
	sort.SliceStable(p.Nodes, func(i, j int) bool {
		a, b := p.Nodes[i], p.Nodes[j]
		if p.NodeEst[a] != p.NodeEst[b] {
			return p.NodeEst[a] < p.NodeEst[b]
		}
		return a < b
	})

	type scored struct {
		idx  uint16
		sel  uint32 // min endpoint population
		work uint64 // parent label adjacency volume
	}
	var edges []scored
	idx := 0
	for u := 0; u < nq; u++ {
		for range q.Succ(pattern.QNode(u)) {
			edges = append(edges, scored{idx: uint16(idx)})
			idx++
		}
	}
	i := 0
	for u := 0; u < nq; u++ {
		for _, uc := range q.Succ(pattern.QNode(u)) {
			sel := p.NodeEst[u]
			if p.NodeEst[uc] < sel {
				sel = p.NodeEst[uc]
			}
			edges[i].sel = sel
			edges[i].work = st.OutSum(q.Label(pattern.QNode(u)))
			i++
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].sel != edges[j].sel {
			return edges[i].sel < edges[j].sel
		}
		if edges[i].work != edges[j].work {
			return edges[i].work < edges[j].work
		}
		return edges[i].idx < edges[j].idx
	})
	p.Edges = make([]uint16, len(edges))
	for i, e := range edges {
		p.Edges[i] = e.idx
	}
	return p
}
