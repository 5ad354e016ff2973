// Package dagsim is dGPMd's coordinator (§5.1): distributed graph
// simulation for DAG patterns (or DAG data graphs) with rank-scheduled
// batching.
//
// For a DAG pattern Q, the topological rank r(u) — 0 for leaves, else
// 1 + max over children — stratifies the Boolean variables: X(u,v)
// depends only on variables of strictly smaller rank. dGPMd therefore
// ships falsifications in at most d waves: a site emits its rank-r batch
// (one message per watching site, possibly empty) as soon as every
// expected batch of rank < r has arrived, because at that point its
// rank-r variables are final. No fixpoint iteration is needed — after d
// waves every variable is final, which is what makes dGPMd parallel
// scalable in response time for fixed |F| (Theorem 3). The sites are
// dGPM's (internal/dgpm, AlgoDAG), started from the same prepared engine
// as a dGPM query of the pattern; the shipping ranks are
// pattern.RankInfo.
//
// When the data graph G is a DAG and Q is cyclic, G cannot match Q (every
// query node on a cycle would need an infinite path), so Q(G) = ∅ with no
// distributed work at all.
package dagsim

import (
	"context"
	"fmt"

	"dgs/internal/cluster"
	"dgs/internal/dagcheck"
	"dgs/internal/dgpm"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// Eval evaluates Q over the fragmentation resident on cluster c with
// dGPMd, as one session. Preconditions (Theorem 3): either Q is a DAG,
// or G is a DAG. gIsDAG asserts the latter; when Q is cyclic and gIsDAG
// holds, the answer is ∅ with no distributed evaluation ("when Q is
// cyclic, G does not match Q"). When Q is cyclic and gIsDAG is not
// asserted, the partition-bounded distributed acyclicity protocol
// (internal/dagcheck) decides G's case on the same cluster.
//
// A nonzero traceID makes every site record per-round spans, returned as
// a QueryTrace; traceID 0 disables tracing (nil trace) with wire traffic
// byte-identical to an untraced run. The acyclicity precheck runs
// untraced — it is its own sub-session with separate stats.
func Eval(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, gIsDAG bool, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	if !q.IsDAG() {
		var checkStats cluster.Stats
		if !gIsDAG {
			ok, st, err := dagcheck.Eval(ctx, c, fr)
			if err != nil {
				return nil, cluster.Stats{}, nil, err
			}
			checkStats = st
			if !ok {
				return nil, cluster.Stats{}, nil, fmt.Errorf("dagsim: dGPMd requires a DAG pattern or a DAG data graph")
			}
		}
		// Cyclic Q on acyclic G: no match, detectable with Tarjan on Q
		// alone (§5.1 "DAG G").
		return simulation.NewMatch(q.NumNodes()), checkStats, nil, nil
	}

	coord := &cluster.Collector{}
	spec := cluster.SessionSpec{Algo: dgpm.AlgoDAG, Query: pattern.EncodeBinary(q), TraceID: traceID}
	stats, trace, err := c.Evaluate(ctx, spec, coord, func(sess *cluster.Session) error {
		if err := sess.Phase(ctx, &wire.Control{Op: dgpm.OpStart}); err != nil {
			return err
		}
		return sess.Phase(ctx, &wire.Control{Op: dgpm.OpReport})
	})
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	m, err := cluster.MatchFromPairs(q.NumNodes(), len(fr.Assign), coord.Pairs)
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	return m.Canonical(), stats, trace, nil
}
