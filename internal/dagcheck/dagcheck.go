// Package dagcheck decides whether a fragmented, distributed data graph
// is acyclic — the precondition of dGPMd's "DAG G" case (§5.1) — without
// assembling the graph anywhere.
//
// The protocol is partition bounded in the paper's sense. Each site, in
// one round:
//
//  1. checks its local subgraph (edges among its own nodes) for cycles
//     with Tarjan's algorithm, and
//  2. computes its boundary summary: for every in-node i, the set of its
//     virtual nodes o reachable from i through local nodes.
//
// Sites ship only the summary — at most |Fi.I|·|Fi.O| pairs — to the
// coordinator, which checks the condensed boundary graph for cycles.
// A global cycle either lies inside one fragment (caught locally) or
// crosses fragments; any crossing cycle decomposes into in-node → virtual
// segments, so it appears as a cycle of the boundary graph, and
// conversely every boundary cycle lifts to a real cycle. Data shipment is
// O(Σ|Fi.I|·|Fi.O|) ≤ O(|Vf|²), independent of |G|.
package dagcheck

import (
	"context"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

const opCheck = 20

// checkSite computes and ships the boundary summary.
type checkSite struct {
	frag *partition.Fragment
}

func (s *checkSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	c, ok := p.(*wire.Control)
	if !ok || c.Op != opCheck {
		return
	}
	cyclic, pairs := Summarize(s.frag)
	sg := &wire.Subgraph{Edges: pairs}
	ctx.Send(cluster.Coordinator, sg)
	ctx.Send(cluster.Coordinator, &wire.Control{Op: opCheck, Flag: cyclic})
}

// Summarize performs the local half of the protocol: a local cycle check
// plus in-node → virtual reachability pairs.
func Summarize(f *partition.Fragment) (localCyclic bool, pairs [][2]uint32) {
	// Dense local indexing (locals then virtuals), mirroring the engine.
	idx := make(map[graph.NodeID]int32, len(f.Local)+len(f.Virtual))
	for i, v := range f.Local {
		idx[v] = int32(i)
	}
	nl := len(f.Local)
	for i, v := range f.Virtual {
		idx[v] = int32(nl + i)
	}
	// Local-only adjacency for the cycle check; full adjacency for
	// reachability (virtual nodes are sinks).
	succ := make([][]int32, nl)
	for li, v := range f.Local {
		for _, w := range f.Succ[v] {
			succ[li] = append(succ[li], idx[w])
		}
	}

	// Tarjan-free cycle check: Kahn's algorithm over local nodes.
	indeg := make([]int32, nl)
	for li := 0; li < nl; li++ {
		for _, w := range succ[li] {
			if w < int32(nl) {
				indeg[w]++
			}
		}
	}
	queue := make([]int32, 0, nl)
	for li := 0; li < nl; li++ {
		if indeg[li] == 0 {
			queue = append(queue, int32(li))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range succ[v] {
			if w < int32(nl) {
				indeg[w]--
				if indeg[w] == 0 {
					queue = append(queue, w)
				}
			}
		}
	}
	if seen != nl {
		return true, nil
	}

	// Reachability from every in-node to virtual nodes (BFS per in-node).
	mark := make([]int32, nl)
	for i := range mark {
		mark[i] = -1
	}
	for ii, in := range f.InNodes {
		start := idx[in]
		stack := []int32{start}
		mark[start] = int32(ii)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range succ[v] {
				if w >= int32(nl) {
					pairs = append(pairs, [2]uint32{uint32(in), uint32(f.Virtual[w-int32(nl)])})
					continue
				}
				if mark[w] != int32(ii) {
					mark[w] = int32(ii)
					stack = append(stack, w)
				}
			}
		}
	}
	return false, dedupePairs(pairs)
}

func dedupePairs(pairs [][2]uint32) [][2]uint32 {
	if len(pairs) < 2 {
		return pairs
	}
	seen := make(map[[2]uint32]bool, len(pairs))
	out := pairs[:0]
	for _, p := range pairs {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// checkCoord accumulates summaries.
type checkCoord struct {
	cyclic bool
	pairs  [][2]uint32
}

func (c *checkCoord) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	switch m := p.(type) {
	case *wire.Subgraph:
		c.pairs = append(c.pairs, m.Edges...)
	case *wire.Control:
		if m.Flag {
			c.cyclic = true
		}
	}
}

// Algo is the registered name of the acyclicity-check site (query-less).
const Algo = "dagcheck"

func init() {
	cluster.RegisterAlgorithm(Algo, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		return &checkSite{frag: frag}, nil
	})
}

// Eval runs the distributed acyclicity protocol as a session on a live
// cluster whose sites hold the fragmentation.
func Eval(ctx context.Context, c *cluster.Cluster, fr *partition.Fragmentation) (bool, cluster.Stats, error) {
	coord := &checkCoord{}
	stats, _, err := c.Evaluate(ctx, cluster.SessionSpec{Algo: Algo}, coord, func(sess *cluster.Session) error {
		err := sess.Phase(ctx, &wire.Control{Op: opCheck})
		sess.AddRounds(1)
		return err
	})
	if err != nil {
		return false, cluster.Stats{}, err
	}
	return !coord.cyclic && boundaryAcyclic(coord.pairs), stats, nil
}

// IsDAG runs the protocol on a throwaway single-query cluster.
func IsDAG(fr *partition.Fragmentation) (bool, cluster.Stats) {
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	ok, st, err := Eval(context.Background(), c, fr)
	if err != nil {
		panic(err) // background context, private cluster: unreachable
	}
	return ok, st
}

// boundaryAcyclic checks the condensed boundary graph with Kahn's
// algorithm over the in-node ID universe.
func boundaryAcyclic(pairs [][2]uint32) bool {
	succ := make(map[uint32][]uint32, len(pairs))
	indeg := make(map[uint32]int, len(pairs))
	nodes := make(map[uint32]bool, len(pairs))
	for _, p := range pairs {
		succ[p[0]] = append(succ[p[0]], p[1])
		indeg[p[1]]++
		nodes[p[0]] = true
		nodes[p[1]] = true
	}
	queue := make([]uint32, 0, len(nodes))
	for v := range nodes {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return seen == len(nodes)
}
