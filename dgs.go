// Package dgs is a distributed graph simulation library — a faithful,
// stdlib-only Go implementation of
//
//	Fan, Wang, Wu, Deng. "Distributed Graph Simulation: Impossibility
//	and Possibility." PVLDB 7(12), 2014.
//
// Given a pattern query Q and a node-labeled directed graph G that is
// fragmented over n sites, the library computes the unique maximum graph
// simulation Q(G) with the paper's partition-bounded algorithm dGPM
// (response time independent of |G|, data shipment O(|Ef||Vq|)), the
// rank-scheduled dGPMd for DAG patterns/graphs, the two-round dGPMt for
// tree data graphs, and the evaluation baselines Match, disHHK and dMes.
//
// The distributed substrate runs on a pluggable wire transport. The
// default backend keeps all sites in-process — one goroutine per site,
// real binary message encoding, exact byte accounting, no emulated link
// cost — while WithRemoteSites deploys the same
// fragments across dgsd site-server processes over TCP, where every
// message crosses a real socket and Stats.WireBytes reports the
// measured traffic (docs/WIRE.md specifies the protocol). Matching the
// paper's setting, a graph is fragmented once and then serves a stream
// of queries: Deploy makes the fragments resident on a running
// substrate, Deployment.Query evaluates patterns against it — many at a
// time, with per-query algorithm selection, context cancellation and
// isolated statistics — and Close tears it down.
//
// Deployments are mutable: Deployment.Apply routes a batch of edge
// deletions/insertions to the owning sites, which update their resident
// fragments in place (queries always see the current graph), and
// Deployment.Watch registers a standing query whose match relation is
// maintained incrementally under deletions — O(|AFF|) falsification
// propagation after [13] — with re-evaluation as the insertion
// fallback. See DESIGN.md for the deployment and update lifecycles, the
// session-multiplexing runtime, and which of the paper's claims the
// tests check and how (§6).
//
// Quick start:
//
//	dict := dgs.NewDict()
//	g := dgs.GenWeb(dict, 300_000, 1_500_000, 1)      // Yahoo-like graph
//	part, _ := dgs.PartitionWith(g, "targetratio", 8, dgs.WithPartitionTarget(0.25), dgs.WithPartitionSeed(1))
//	dep, _ := dgs.Deploy(part)                        // fragment once
//	defer dep.Close()
//	q, _ := dgs.ParsePattern(dict, "node a l0\nnode b l1\nedge a b")
//	res, _ := dep.Query(ctx, q)                       // serve many
//	fmt.Println(res.Match.Ok(), res.Stats.DataBytes)
package dgs

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
)

// NodeID identifies a data-graph node.
type NodeID = graph.NodeID

// QNode identifies a pattern-query node.
type QNode = pattern.QNode

// Dict interns node labels; share one Dict between a graph and the
// patterns queried against it.
type Dict = graph.Dict

// NewDict returns an empty label dictionary.
func NewDict() *Dict { return graph.NewDict() }

// Graph is an immutable node-labeled directed data graph.
type Graph struct {
	g *graph.Graph
}

// NumNodes reports |V|; NumEdges reports |E|; Size reports |V|+|E|.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// Size reports |G| = |V| + |E|, the paper's size measure.
func (g *Graph) Size() int { return g.g.Size() }

// LabelName returns the label of node v.
func (g *Graph) LabelName(v NodeID) string { return g.g.LabelName(v) }

// Succ returns the out-neighbors of v; callers must not modify it.
func (g *Graph) Succ(v NodeID) []NodeID { return g.g.Succ(v) }

// IsDAG reports whether the graph is acyclic (dGPMd's data-graph case).
func (g *Graph) IsDAG() bool { return graph.IsDAG(g.g) }

// IsTree reports whether the graph is a rooted tree or forest (dGPMt's
// precondition).
func (g *Graph) IsTree() bool {
	_, ok := graph.IsTree(g.g)
	return ok
}

// WriteBinary serializes the graph (DGSG1 format).
func (g *Graph) WriteBinary(w io.Writer) error { return graph.WriteBinary(w, g.g) }

// ReadGraph deserializes a DGSG1 graph.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Dict returns the graph's label dictionary. Patterns queried against a
// graph loaded with ReadGraph must be parsed against it, so that label
// ids agree.
func (g *Graph) Dict() *Dict { return g.g.Dict() }

// String summarizes the graph.
func (g *Graph) String() string { return g.g.String() }

// GraphBuilder accumulates nodes and edges for a Graph.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder returns a builder interning labels into dict.
func NewGraphBuilder(dict *Dict) *GraphBuilder {
	return &GraphBuilder{b: graph.NewBuilderDict(dict)}
}

// AddNode appends a node with the given label and returns its ID.
func (b *GraphBuilder) AddNode(label string) NodeID { return b.b.AddNode(label) }

// AddEdge records the directed edge (v, w).
func (b *GraphBuilder) AddEdge(v, w NodeID) { b.b.AddEdge(v, w) }

// Build validates and returns the immutable graph.
func (b *GraphBuilder) Build() (*Graph, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Pattern is a graph pattern query Q = (Vq, Eq, fv).
type Pattern struct {
	p *pattern.Pattern
}

// ParsePattern reads the pattern DSL:
//
//	node <name> <label>
//	edge <from> <to>
func ParsePattern(dict *Dict, src string) (*Pattern, error) {
	p, err := pattern.Parse(dict, src)
	if err != nil {
		return nil, err
	}
	return &Pattern{p: p}, nil
}

// NumNodes reports |Vq|.
func (p *Pattern) NumNodes() int { return p.p.NumNodes() }

// NumEdges reports |Eq|.
func (p *Pattern) NumEdges() int { return p.p.NumEdges() }

// Size reports |Q| = |Vq| + |Eq|.
func (p *Pattern) Size() int { return p.p.Size() }

// IsDAG reports whether Q is acyclic.
func (p *Pattern) IsDAG() bool { return p.p.IsDAG() }

// Diameter reports d, the undirected diameter of Q (§5.1).
func (p *Pattern) Diameter() int { return p.p.Diameter() }

// NodeName returns a printable identifier for query node u.
func (p *Pattern) NodeName(u QNode) string { return p.p.NodeName(u) }

// String renders the pattern in the ParsePattern format.
func (p *Pattern) String() string { return p.p.String() }

// CanonicalKey returns the pattern's canonical rendering: a key
// invariant under node renaming and declaration reordering, so
// equivalent patterns share one cache entry, one coalesced flight, and
// one standing-query block. Patterns past the canonicalization caps
// (see internal/plan) fall back to a "raw\n"-prefixed declaration-order
// key, which is merely less shareable, never wrong.
func (p *Pattern) CanonicalKey() string { return plan.Canonicalize(p.p).Key }

// Canonical returns the pattern's canonical form: an equivalent pattern
// whose nodes are named c0..cN in canonical order, the CanonicalKey,
// and the node mapping — perm[u] is the canonical pattern's node
// matching this pattern's node u. Fallback patterns return themselves
// with the identity mapping.
func (p *Pattern) Canonical() (canon *Pattern, key string, perm []int) {
	c := plan.Canonicalize(p.p)
	if !strings.HasPrefix(c.Key, "raw\n") {
		if cp, err := pattern.Parse(p.p.Dict(), c.Key); err == nil {
			return &Pattern{p: cp}, c.Key, c.Perm
		}
		// Unreachable for keys Canonicalize produced; degrade to raw.
	}
	ident := make([]int, p.p.NumNodes())
	for i := range ident {
		ident[i] = i
	}
	return p, c.Key, ident
}

// Metric selects the boundary ratio PartitionTargetRatio controls.
type Metric = partition.Metric

// Boundary metrics (§2.2): ByVf targets |Vf|/|V|, ByEf targets |Ef|/|E|.
const (
	ByVf = partition.ByVf
	ByEf = partition.ByEf
)

// Partition is a fragmentation F = (F1, ..., Fn) of a graph (§2.2).
type Partition struct {
	fr *partition.Fragmentation
}

// NumFragments reports |F|.
func (p *Partition) NumFragments() int { return p.fr.NumFragments() }

// Vf reports |Vf|, the number of nodes with incoming crossing edges.
func (p *Partition) Vf() int { return p.fr.Vf() }

// Ef reports |Ef|, the number of crossing edges.
func (p *Partition) Ef() int { return p.fr.Ef() }

// VfRatio reports |Vf|/|V|.
func (p *Partition) VfRatio() float64 { return p.fr.VfRatio() }

// EfRatio reports |Ef|/|E|.
func (p *Partition) EfRatio() float64 { return p.fr.EfRatio() }

// MaxFragmentSize reports |Fm|, the size of the largest fragment.
func (p *Partition) MaxFragmentSize() int { return p.fr.MaxFragmentSize() }

// CurrentGraph returns the graph as of all updates applied through a
// deployment of this partition — the graph originally fragmented when
// none have been. The result is an immutable snapshot (cached until the
// next update), suitable as the oracle input to Simulate or for
// re-fragmenting.
func (p *Partition) CurrentGraph() *Graph { return &Graph{g: p.fr.CurrentGraph()} }

// Assignment returns a copy of the node→fragment assignment vector.
func (p *Partition) Assignment() []int32 {
	return append([]int32(nil), p.fr.Assign...)
}

// Strategy names the registered partitioner that produced this
// partition ("custom" for explicit assignments).
func (p *Partition) Strategy() string { return p.fr.Strategy }

// BuildTime reports the wall time spent planning and building the
// fragmentation.
func (p *Partition) BuildTime() time.Duration { return p.fr.BuildTime }

// FragmentSizes returns each fragment's node count |Vi| sorted
// descending — the balance a partitioner achieved.
func (p *Partition) FragmentSizes() []int { return p.fr.FragmentSizes() }

// String summarizes the partition.
func (p *Partition) String() string { return p.fr.String() }

// PartitionOption tunes PartitionWith.
type PartitionOption func(*partition.Options)

// WithPartitionSeed fixes the seed driving every randomized choice of a
// strategy; runs with equal seeds produce identical assignments.
func WithPartitionSeed(seed int64) PartitionOption {
	return func(o *partition.Options) { o.Seed = seed }
}

// WithPartitionMetric selects the boundary metric (ByVf or ByEf) for
// the strategies that target or refine a ratio.
func WithPartitionMetric(m Metric) PartitionOption {
	return func(o *partition.Options) { o.Metric = m }
}

// WithPartitionTarget sets the boundary ratio the "targetratio"
// strategy aims for.
func WithPartitionTarget(target float64) PartitionOption {
	return func(o *partition.Options) { o.Target = target }
}

// WithBalanceSlack bounds fragment imbalance for the quality-first
// strategies: no fragment holds more than ceil((1+slack)·|V|/n) nodes.
// A slack ≤ 0 selects the default 10% (there is no way to request
// perfectly tight balance; use "random" or "blocks" for ±1 balance).
func WithBalanceSlack(slack float64) PartitionOption {
	return func(o *partition.Options) { o.Slack = slack }
}

// WithRefinePasses runs up to n incremental plurality-vote refinement
// passes after the base assignment (random, blocks, ldg, fennel).
func WithRefinePasses(n int) PartitionOption {
	return func(o *partition.Options) { o.RefinePasses = n }
}

// Partitioners lists the registered partitioning strategies, sorted by
// name: the quality-first streaming planners ("ldg", "fennel"), the
// paper's experiment fixtures ("random", "blocks", "targetratio",
// "chain") and the dGPMt precondition planner ("tree").
func Partitioners() []string { return partition.Partitioners() }

// PartitionWith fragments g into n fragments with the named registered
// strategy. The result records the strategy and build time, making
// every downstream measurement attributable to its fragmentation:
//
//	part, err := dgs.PartitionWith(g, "ldg", 256, dgs.WithPartitionSeed(1))
//	fmt.Println(part.Strategy(), part.Ef(), part.BuildTime())
func PartitionWith(g *Graph, name string, n int, opts ...PartitionOption) (*Partition, error) {
	var o partition.Options
	for _, opt := range opts {
		opt(&o)
	}
	fr, err := partition.PartitionBy(g.g, name, n, o)
	if err != nil {
		return nil, err
	}
	return &Partition{fr: fr}, nil
}

// PartitionFromAssign builds a fragmentation from an explicit node→site
// assignment.
func PartitionFromAssign(g *Graph, assign []int32) (*Partition, error) {
	fr, err := partition.FromAssign(g.g, assign)
	if err != nil {
		return nil, err
	}
	if err := fr.Validate(); err != nil {
		return nil, err
	}
	return &Partition{fr: fr}, nil
}

// Match is a simulation relation: for every query node, the set of data
// nodes matching it. The zero relation (some query node unmatched) is the
// empty relation Q(G) = ∅.
type Match struct {
	m *simulation.Match
}

// Ok reports whether G matches Q (every query node has a match).
func (m *Match) Ok() bool { return m.m.Ok() }

// NumPairs reports |Q(G)| as a set of (u,v) pairs.
func (m *Match) NumPairs() int { return m.m.NumPairs() }

// MatchesOf returns the sorted matches of query node u.
func (m *Match) MatchesOf(u QNode) []NodeID { return m.m.Sets[u] }

// Contains reports whether (u, v) is in the relation.
func (m *Match) Contains(u QNode, v NodeID) bool { return m.m.Contains(u, v) }

// Equal reports whether two relations are identical.
func (m *Match) Equal(o *Match) bool { return m.m.Equal(o.m) }

// String renders the relation compactly.
func (m *Match) String() string { return m.m.String() }

// Simulate computes Q(G) with the centralized
// O((|Vq|+|V|)(|Eq|+|E|)) algorithm [11,18] — the ground truth the
// distributed algorithms are verified against.
func Simulate(q *Pattern, g *Graph) *Match {
	return &Match{m: simulation.HHK(q.p, g.g)}
}

// errorf keeps error wrapping consistent across the facade.
func errorf(format string, args ...interface{}) error {
	return fmt.Errorf("dgs: "+format, args...)
}
