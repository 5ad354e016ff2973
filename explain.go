package dgs

// Explain: the planner's inspection surface. It reports what the
// deployment knows about a pattern before evaluating it — each query
// node's and edge's candidate estimate, the Empty short-circuit verdict,
// and the renaming-invariant canonical cache key — without opening a
// session or shipping a byte. dgsrun -explain and the gateway's
// "explain" request field render this.

import (
	"fmt"
	"strings"

	"dgs/internal/pattern"
	"dgs/internal/plan"
)

// PlanInfo describes the plan of one pattern against a deployment, as
// produced by Deployment.Explain. Its JSON form is the gateway's explain
// response (docs/HTTP.md).
type PlanInfo struct {
	// CanonicalKey is the renaming-invariant canonical rendering of the
	// pattern: equivalent-modulo-renaming patterns share it, so caches
	// and standing-query sharing key on it.
	CanonicalKey string `json:"canonical_key"`
	// Empty reports that some query node's label has zero occurrences in
	// the deployed graph: Query answers ∅ without any distributed work.
	Empty bool `json:"empty"`
	// Nodes lists the query nodes in declaration order.
	Nodes []PlanNode `json:"nodes"`
	// Edges lists the query edges in declaration order: by source node,
	// then in the order each source's edges were added.
	Edges []PlanEdge `json:"edges"`
}

// PlanNode is one query node with its estimate.
type PlanNode struct {
	// Name is the node's printable identifier, Label its label name.
	Name  string `json:"name"`
	Label string `json:"label"`
	// Est is the candidate estimate: the number of graph nodes carrying
	// the label (exact for the deployed graph — labels never change).
	Est uint32 `json:"est"`
}

// PlanEdge is one query edge with its estimate.
type PlanEdge struct {
	// From and To are the endpoint node names.
	From string `json:"from"`
	To   string `json:"to"`
	// Est is the selectivity estimate: the smaller endpoint candidate
	// count.
	Est uint32 `json:"est"`
}

// Explain reports what the deployment knows about q before evaluating
// it, without executing anything.
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
		Nodes:        make([]PlanNode, 0, p.NumNodes()),
		Edges:        make([]PlanEdge, 0, p.NumEdges()),
	}
	for u := range p.NumNodes() {
		qu := pattern.QNode(u)
		info.Nodes = append(info.Nodes, PlanNode{Name: p.NodeName(qu), Label: p.LabelName(qu), Est: pl.NodeEst[u]})
		for _, w := range p.Succ(qu) {
			info.Edges = append(info.Edges, PlanEdge{
				From: p.NodeName(qu),
				To:   p.NodeName(w),
				Est:  min(pl.NodeEst[u], pl.NodeEst[w]),
			})
		}
	}
	return info, nil
}

// String renders the plan for terminals (dgsrun -explain).
func (pi *PlanInfo) String() string {
	var b strings.Builder
	if pi.Empty {
		b.WriteString("verdict: empty — a query label has no occurrence in the graph; Query short-circuits\n")
	}
	b.WriteString("nodes (candidate estimates):\n")
	for _, n := range pi.Nodes {
		fmt.Fprintf(&b, "  %s (%s) est %d\n", n.Name, n.Label, n.Est)
	}
	b.WriteString("edges (smaller endpoint estimate):\n")
	for _, e := range pi.Edges {
		fmt.Fprintf(&b, "  %s -> %s est %d\n", e.From, e.To, e.Est)
	}
	b.WriteString("canonical key:\n")
	for _, line := range strings.Split(strings.TrimRight(pi.CanonicalKey, "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}
