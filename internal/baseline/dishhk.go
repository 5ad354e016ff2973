package baseline

// disHHK — the distributed simulation algorithm of Ma et al., "Distributed
// graph pattern matching", WWW 2012 [25], as characterized by the paper:
// each site's partial answer is "the subgraph of Fi induced from all the
// candidate nodes, assuming that they are all matches" (§4.1), and those
// subgraphs "are collected to a single site to form a directly query-able
// graph, where matches can be determined". Candidates are the
// label-consistent nodes — no cross-site refinement happens before the
// shipment, which is why disHHK's data shipment is a function of |G|
// (Table 1: DS = O(|G| + 4|Vf| + |F||Q|)) and why dGPM ships 3 orders of
// magnitude less in Exp-1.

import (
	"context"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// candSite ships the candidate-induced subgraph of its fragment.
type candSite struct {
	q    *pattern.Pattern
	frag *partition.Fragment
}

// isCandidate reports whether v's label matches any query node.
func isCandidate(q *pattern.Pattern, l graph.Label) bool {
	for u := 0; u < q.NumNodes(); u++ {
		if q.Label(pattern.QNode(u)) == l {
			return true
		}
	}
	return false
}

func (s *candSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	c, ok := p.(*wire.Control)
	if !ok || c.Op != opCands {
		return
	}
	ix := s.frag.Index()
	sg := &wire.Subgraph{}
	lis := localIndices(s.frag, ix)
	cand := make([]bool, len(ix.Vis)) // by index into ix.Vis
	for vi, l := range ix.Labels {
		cand[vi] = isCandidate(s.q, l)
	}
	for i, v := range s.frag.Local {
		if li := lis[i]; cand[li] {
			sg.Nodes = append(sg.Nodes, uint32(v))
			sg.Labels = append(sg.Labels, uint16(ix.Labels[li]))
		}
	}
	// Keep every edge between candidates; edges to candidate virtual
	// nodes ride along (their owner ships the node entry).
	for i, v := range s.frag.Local {
		if !cand[lis[i]] {
			continue
		}
		for _, wi := range ix.Succ[lis[i]] {
			if cand[wi] {
				sg.Edges = append(sg.Edges, [2]uint32{uint32(v), uint32(ix.Vis[wi])})
			}
		}
	}
	ctx.Send(cluster.Coordinator, sg)
}

// EvalDisHHK evaluates Q with the candidate-shipping algorithm of [25]
// as one session on a live cluster. A nonzero traceID returns the
// session's QueryTrace (nil otherwise).
func EvalDisHHK(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	spec := cluster.SessionSpec{Algo: AlgoDisHHK, Query: pattern.EncodeBinary(q), TraceID: traceID}
	return evalMerged(ctx, c, q, spec, opCands)
}
