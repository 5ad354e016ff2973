// Package baseline implements the three comparison algorithms of the
// paper's evaluation (§6):
//
//   - Match: the naive algorithm of §3.1 — ship every fragment to a
//     single site and run centralized simulation there. DS ≈ |G|.
//   - disHHK: the algorithm of Ma et al. [25] — each site refines local
//     candidates, ships the candidate-induced subgraph to the
//     coordinator, which assembles a directly query-able graph and runs
//     centralized simulation. DS is a function of |G| in the worst case.
//   - dMes: the vertex-centric Pregel-style algorithm of [14,26] — each
//     vertex keeps its candidate set and, superstep by superstep, sends
//     its candidate vector to cross-site in-neighbors until no vertex
//     changes. Per the paper's setup, message passing is only charged
//     for cross-site traffic ("we do not assume message passing for
//     local evaluation").
package baseline

import (
	"context"
	"fmt"
	"sort"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// Control opcodes.
const (
	opShip   = 10 // Match: ship the whole fragment
	opCands  = 11 // disHHK: refine and ship the candidate subgraph
	opSuper  = 12 // dMes: run superstep Arg
	opVote   = 13 // dMes: site -> coordinator, Flag = changed
	opReport = 14 // dMes: ship local matches
)

// merger is the coordinator side of Match and disHHK: it accumulates
// shipped subgraphs keyed by global node ID.
type merger struct {
	labels map[uint32]uint16
	edges  [][2]uint32
}

func (m *merger) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	sg, ok := p.(*wire.Subgraph)
	if !ok {
		return
	}
	for i, v := range sg.Nodes {
		m.labels[v] = sg.Labels[i]
	}
	m.edges = append(m.edges, sg.Edges...)
}

// assemble builds the merged graph; merged node i corresponds to the
// i-th smallest global ID in the returned slice.
func (m *merger) assemble(dict *graph.Dict) (*graph.Graph, []uint32, error) {
	ids := make([]uint32, 0, len(m.labels))
	for v := range m.labels {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	remap := make(map[uint32]graph.NodeID, len(ids))
	b := graph.NewBuilderDict(dict)
	for _, v := range ids {
		remap[v] = b.AddNodeLabel(graph.Label(m.labels[v]))
	}
	for _, e := range m.edges {
		s, ok1 := remap[e[0]]
		d, ok2 := remap[e[1]]
		if !ok1 || !ok2 {
			// disHHK: an edge to a pruned candidate — skip (the endpoint
			// matches nothing). Match never produces this.
			continue
		}
		b.AddEdge(s, d)
	}
	g, err := b.Build()
	return g, ids, err
}

// toGlobal maps a merged-graph match relation back to global node IDs.
func toGlobal(m *simulation.Match, ids []uint32) *simulation.Match {
	out := simulation.NewMatch(len(m.Sets))
	for u := range m.Sets {
		for _, v := range m.Sets[u] {
			out.Sets[u] = append(out.Sets[u], graph.NodeID(ids[v]))
		}
	}
	out.Sort()
	return out
}

// fragmentSubgraph serializes an entire fragment: its local nodes with
// labels and all its edges (including crossing edges).
func fragmentSubgraph(f *partition.Fragment) *wire.Subgraph {
	sg := &wire.Subgraph{}
	for _, v := range f.Local {
		sg.Nodes = append(sg.Nodes, uint32(v))
		sg.Labels = append(sg.Labels, uint16(f.Labels[v]))
	}
	for _, v := range f.Local {
		for _, w := range f.Succ[v] {
			sg.Edges = append(sg.Edges, [2]uint32{uint32(v), uint32(w)})
		}
	}
	return sg
}

// shipSite answers opShip with the whole fragment (Match).
type shipSite struct {
	frag *partition.Fragment
}

func (s *shipSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	if c, ok := p.(*wire.Control); ok && c.Op == opShip {
		ctx.Send(cluster.Coordinator, fragmentSubgraph(s.frag))
	}
}

// Registered algorithm names of the three baseline sites.
const (
	AlgoMatch  = "match"
	AlgoDisHHK = "dishhk"
	AlgoDMes   = "dmes"
)

func init() {
	cluster.RegisterAlgorithm(AlgoMatch, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		return &shipSite{frag: frag}, nil
	})
	cluster.RegisterAlgorithm(AlgoDisHHK, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		return &candSite{q: q, frag: frag}, nil
	})
	cluster.RegisterAlgorithm(AlgoDMes, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		return newDmesSite(q, frag), nil
	})
}

// EvalMatch evaluates Q with the naive ship-everything algorithm (§3.1)
// as one session on a live cluster. A nonzero traceID returns the
// session's QueryTrace (nil otherwise).
func EvalMatch(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	return evalMerged(ctx, c, q, cluster.SessionSpec{Algo: AlgoMatch, TraceID: traceID}, opShip)
}

// evalMerged is the shared driver of Match and disHHK: one round in
// which every site answers op with a subgraph, then centralized
// simulation over the merged graph at the coordinator site — on the PT
// clock, since that evaluation is the algorithm's response time.
func evalMerged(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, spec cluster.SessionSpec, op uint8) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	coord := &merger{labels: make(map[uint32]uint16)}
	var res *simulation.Match
	stats, trace, err := c.Evaluate(ctx, spec, coord, func(sess *cluster.Session) error {
		if err := sess.Phase(ctx, &wire.Control{Op: op}); err != nil {
			return err
		}
		sess.AddRounds(1)
		g, ids, err := coord.assemble(q.Dict())
		if err != nil {
			return fmt.Errorf("baseline: %s assembly: %w", spec.Algo, err)
		}
		res = toGlobal(simulation.HHK(q, g), ids)
		return nil
	})
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	return res.Canonical(), stats, trace, nil
}
