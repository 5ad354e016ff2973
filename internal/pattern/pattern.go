// Package pattern implements pattern queries Q = (Vq, Eq, fv) from §2.1 of
// the paper, together with the structural measures the algorithms need:
// cyclicity (dGPMd's DAG test), the diameter d, and the topological rank
// r(u) of §5.1 that schedules batched message passing.
package pattern

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dgs/internal/graph"
)

// QNode identifies a query node. Patterns are small, so uint16 suffices,
// but we use uint32 for symmetry with graph.NodeID.
type QNode = uint32

// Pattern is a directed, node-labeled pattern query.
type Pattern struct {
	labels []graph.Label
	names  []string // optional human-readable node names
	succ   [][]QNode
	pred   [][]QNode
	dict   *graph.Dict
}

// New returns an empty pattern interning labels into dict (share the dict
// with the data graph so labels compare by value).
func New(dict *graph.Dict) *Pattern {
	return &Pattern{dict: dict}
}

// AddNode appends a query node with label and optional name; returns its id.
func (p *Pattern) AddNode(label, name string) QNode {
	id := QNode(len(p.labels))
	p.labels = append(p.labels, p.dict.Intern(label))
	p.names = append(p.names, name)
	p.succ = append(p.succ, nil)
	p.pred = append(p.pred, nil)
	return id
}

// AddEdge adds the query edge (u, u2). Duplicates are ignored.
func (p *Pattern) AddEdge(u, u2 QNode) error {
	if int(u) >= len(p.labels) || int(u2) >= len(p.labels) {
		return fmt.Errorf("pattern: edge (%d,%d) references missing node", u, u2)
	}
	for _, w := range p.succ[u] {
		if w == u2 {
			return nil
		}
	}
	p.succ[u] = append(p.succ[u], u2)
	p.pred[u2] = append(p.pred[u2], u)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (p *Pattern) MustAddEdge(u, u2 QNode) {
	if err := p.AddEdge(u, u2); err != nil {
		panic(err)
	}
}

// NumNodes reports |Vq|.
func (p *Pattern) NumNodes() int { return len(p.labels) }

// NumEdges reports |Eq|.
func (p *Pattern) NumEdges() int {
	n := 0
	for _, s := range p.succ {
		n += len(s)
	}
	return n
}

// Size reports |Q| = |Vq| + |Eq|.
func (p *Pattern) Size() int { return p.NumNodes() + p.NumEdges() }

// Label returns fv(u) as an interned label.
func (p *Pattern) Label(u QNode) graph.Label { return p.labels[u] }

// LabelName returns fv(u) as a string.
func (p *Pattern) LabelName(u QNode) string { return p.dict.Name(p.labels[u]) }

// Name returns the optional node name ("" if unset).
func (p *Pattern) Name(u QNode) string { return p.names[u] }

// NodeName returns a printable identifier: the name if set, else "u<i>".
func (p *Pattern) NodeName(u QNode) string {
	if p.names[u] != "" {
		return p.names[u]
	}
	return fmt.Sprintf("u%d", u)
}

// Succ returns the children of u (query edges u→u'). Do not modify.
func (p *Pattern) Succ(u QNode) []QNode { return p.succ[u] }

// Pred returns the parents of u. Do not modify.
func (p *Pattern) Pred(u QNode) []QNode { return p.pred[u] }

// Dict returns the shared label dictionary.
func (p *Pattern) Dict() *graph.Dict { return p.dict }

// AsGraph converts the pattern into a graph.Graph sharing the same node
// IDs, for reuse of Tarjan / topological machinery.
func (p *Pattern) AsGraph() *graph.Graph {
	b := graph.NewBuilderDict(p.dict)
	for u := range p.labels {
		b.AddNodeLabel(p.labels[u])
	}
	for u, ss := range p.succ {
		for _, w := range ss {
			b.AddEdge(graph.NodeID(u), graph.NodeID(w))
		}
	}
	return b.MustBuild()
}

// IsDAG reports whether Q has no directed cycle.
func (p *Pattern) IsDAG() bool { return graph.IsDAG(p.AsGraph()) }

// Ranks computes the topological rank r(u) of §5.1:
// r(u) = 0 if u has no child, else 1 + max over children. Defined only for
// DAG patterns; ok=false for cyclic Q.
func (p *Pattern) Ranks() (r []int, ok bool) {
	g := p.AsGraph()
	order, ok := graph.TopoOrder(g)
	if !ok {
		return nil, false
	}
	r = make([]int, p.NumNodes())
	// Process in reverse topological order so children are done first.
	for i := len(order) - 1; i >= 0; i-- {
		u := QNode(order[i])
		best := -1
		for _, c := range p.succ[u] {
			if r[c] > best {
				best = r[c]
			}
		}
		r[u] = best + 1
	}
	return r, true
}

// Diameter returns d, the length of the longest shortest path between any
// two nodes in the underlying undirected pattern, the quantity the paper's
// dGPMd bound is stated in (§5.1: "d is the diameter of Q"). For DAG
// patterns the maximum rank equals the longest directed path; the paper
// uses them interchangeably (r(u) ≤ d). We follow the rank-based measure
// for scheduling and expose the undirected diameter separately.
func (p *Pattern) Diameter() int {
	n := p.NumNodes()
	if n == 0 {
		return 0
	}
	// Undirected BFS from every node; patterns are tiny.
	adj := make([][]QNode, n)
	for u := 0; u < n; u++ {
		adj[u] = append(adj[u], p.succ[u]...)
		adj[u] = append(adj[u], p.pred[u]...)
	}
	best := 0
	dist := make([]int, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		q := []int{s}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					if dist[w] > best {
						best = dist[w]
					}
					q = append(q, int(w))
				}
			}
		}
	}
	return best
}

// MaxRank returns the largest topological rank (the number of message
// waves dGPMd needs), or -1 for cyclic patterns.
func (p *Pattern) MaxRank() int {
	r, ok := p.Ranks()
	if !ok {
		return -1
	}
	best := 0
	for _, x := range r {
		if x > best {
			best = x
		}
	}
	return best
}

// RankInfo is dGPMd's shipping-rank table (§5.1): the rank of every
// query node, the largest, and per label the ranks at which a variable
// X(u,v) of a node v with that label is shipped. Those are the ranks
// r(u) ≥ 1 of the query nodes u with that label and a parent: a leaf's
// variables are constant, and a variable of a node without a parent feeds
// nobody ("no data needs to be shipped when r = d").
type RankInfo struct {
	Ranks   []int // r(u) per query node
	MaxRank int
	// Labels lists the labels that ship at some rank, ascending.
	Labels []graph.Label
	// ship[l] lists label l's shipping ranks, ascending.
	ship [][]int
}

// NewRankInfo computes p's shipping-rank table; ok=false for cyclic Q.
func NewRankInfo(p *Pattern) (ri *RankInfo, ok bool) {
	r, ok := p.Ranks()
	if !ok {
		return nil, false
	}
	ri = &RankInfo{Ranks: r}
	for u, rr := range r {
		ri.MaxRank = max(ri.MaxRank, rr)
		if rr == 0 || len(p.pred[u]) == 0 {
			continue
		}
		l := p.labels[u]
		if int(l) >= len(ri.ship) {
			ri.ship = append(ri.ship, make([][]int, int(l)+1-len(ri.ship))...)
		}
		if len(ri.ship[l]) == 0 {
			ri.Labels = append(ri.Labels, l)
		}
		if i, found := slices.BinarySearch(ri.ship[l], rr); !found {
			ri.ship[l] = slices.Insert(ri.ship[l], i, rr)
		}
	}
	slices.Sort(ri.Labels)
	return ri, true
}

// ShipRanks reports, ascending, the ranks at which variables of a node
// labelled l are shipped.
func (ri *RankInfo) ShipRanks(l graph.Label) []int {
	if int(l) >= len(ri.ship) {
		return nil
	}
	return ri.ship[l]
}

// Validate checks structural sanity: every node has a label, no dangling
// edges (impossible by construction, but kept for parser outputs).
func (p *Pattern) Validate() error {
	if p.NumNodes() == 0 {
		return fmt.Errorf("pattern: empty pattern")
	}
	for u := range p.labels {
		if p.labels[u] == graph.NoLabel {
			return fmt.Errorf("pattern: node %d has no label", u)
		}
	}
	return nil
}

// String renders the pattern in the Parse format.
func (p *Pattern) String() string {
	var sb strings.Builder
	for u := 0; u < p.NumNodes(); u++ {
		fmt.Fprintf(&sb, "node %s %s\n", p.NodeName(QNode(u)), p.LabelName(QNode(u)))
	}
	for u := 0; u < p.NumNodes(); u++ {
		ss := append([]QNode(nil), p.succ[u]...)
		sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
		for _, w := range ss {
			fmt.Fprintf(&sb, "edge %s %s\n", p.NodeName(QNode(u)), p.NodeName(w))
		}
	}
	return sb.String()
}

// Parse reads a small DSL:
//
//	node <name> <label>
//	edge <name> <name>
//
// Names are arbitrary identifiers; labels are interned into dict.
func Parse(dict *graph.Dict, src string) (*Pattern, error) {
	p := New(dict)
	byName := map[string]QNode{}
	for lineno, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "node":
			if len(f) != 3 {
				return nil, fmt.Errorf("pattern: line %d: want 'node <name> <label>'", lineno+1)
			}
			if _, dup := byName[f[1]]; dup {
				return nil, fmt.Errorf("pattern: line %d: duplicate node %q", lineno+1, f[1])
			}
			byName[f[1]] = p.AddNode(f[2], f[1])
		case "edge":
			if len(f) != 3 {
				return nil, fmt.Errorf("pattern: line %d: want 'edge <from> <to>'", lineno+1)
			}
			u, ok := byName[f[1]]
			if !ok {
				return nil, fmt.Errorf("pattern: line %d: unknown node %q", lineno+1, f[1])
			}
			w, ok := byName[f[2]]
			if !ok {
				return nil, fmt.Errorf("pattern: line %d: unknown node %q", lineno+1, f[2])
			}
			if err := p.AddEdge(u, w); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("pattern: line %d: unknown directive %q", lineno+1, f[0])
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is Parse that panics on error; for fixtures.
func MustParse(dict *graph.Dict, src string) *Pattern {
	p, err := Parse(dict, src)
	if err != nil {
		panic(err)
	}
	return p
}
