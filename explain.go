package dgs

// Explain: the planner's inspection surface. It reports how a
// deployment would evaluate a pattern — seed and edge orders with their
// selectivity estimates, the Empty short-circuit verdict, and the
// renaming-invariant canonical cache key — without opening a session or
// shipping a byte. dgsrun -explain and the gateway's "explain" request
// field render this.

import (
	"fmt"
	"strings"

	"dgs/internal/pattern"
	"dgs/internal/plan"
)

// PlanInfo describes the evaluation plan of one pattern against a
// deployment, as produced by Deployment.Explain.
type PlanInfo struct {
	// CanonicalKey is the renaming-invariant canonical rendering of the
	// pattern: equivalent-modulo-renaming patterns share it, so caches
	// and standing-query sharing key on it.
	CanonicalKey string
	// Empty reports that some query node's label has zero occurrences in
	// the deployed graph: Query answers ∅ without any distributed work.
	Empty bool
	// Nodes is the seed evaluation order, rarest label first.
	Nodes []PlanNode
	// Edges is the query-edge evaluation order, ascending estimated
	// selectivity.
	Edges []PlanEdge
}

// PlanNode is one query node in plan order.
type PlanNode struct {
	// Name is the node's printable identifier, Label its label name.
	Name, Label string
	// Est is the candidate estimate: the number of graph nodes carrying
	// the label (exact for the deployed graph — labels never change).
	Est uint32
}

// PlanEdge is one query edge in plan order.
type PlanEdge struct {
	// From and To are the endpoint node names.
	From, To string
	// Est is the selectivity estimate: the smaller endpoint candidate
	// count (the counter population that can exhaust first).
	Est uint32
}

// Explain reports how the deployment would evaluate q, without
// executing anything.
func (d *Deployment) Explain(q *Pattern) (*PlanInfo, error) {
	if q == nil {
		return nil, errorf("explain: nil pattern")
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, errorf("explain: %w", ErrClosed)
	}

	p := q.p
	pl := d.planFor(p)
	info := &PlanInfo{
		CanonicalKey: plan.Canonicalize(p).Key,
		Empty:        pl.Empty,
	}
	for _, u := range pl.Nodes {
		info.Nodes = append(info.Nodes, PlanNode{
			Name:  p.NodeName(pattern.QNode(u)),
			Label: p.LabelName(pattern.QNode(u)),
			Est:   pl.NodeEst[u],
		})
	}
	// pl.Edges indexes the engines' edge enumeration: u ascending,
	// succ-slice order.
	type edge struct{ from, to pattern.QNode }
	var edges []edge
	for u := 0; u < p.NumNodes(); u++ {
		for _, w := range p.Succ(pattern.QNode(u)) {
			edges = append(edges, edge{pattern.QNode(u), w})
		}
	}
	for _, ei := range pl.Edges {
		e := edges[ei]
		info.Edges = append(info.Edges, PlanEdge{
			From: p.NodeName(e.from),
			To:   p.NodeName(e.to),
			Est:  min(pl.NodeEst[e.from], pl.NodeEst[e.to]),
		})
	}
	return info, nil
}

// String renders the plan for terminals (dgsrun -explain).
func (pi *PlanInfo) String() string {
	var b strings.Builder
	if pi.Empty {
		b.WriteString("verdict: empty — a query label has no occurrence in the graph; Query short-circuits\n")
	}
	b.WriteString("seed order (rarest label first):\n")
	for _, n := range pi.Nodes {
		fmt.Fprintf(&b, "  %s (%s) est %d\n", n.Name, n.Label, n.Est)
	}
	b.WriteString("edge order (ascending selectivity):\n")
	for _, e := range pi.Edges {
		fmt.Fprintf(&b, "  %s -> %s est %d\n", e.From, e.To, e.Est)
	}
	b.WriteString("canonical key:\n")
	for _, line := range strings.Split(strings.TrimRight(pi.CanonicalKey, "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}
