package dgpm

// The dGPM driver: one site handler per fragment plus a collecting
// coordinator, run as a cluster query session through the three phases
// of Fig. 3 — (1) partial evaluation, (2) asynchronous message passing
// to the fixpoint, (3) assembly of Q(G) at the coordinator Sc.

import (
	"context"

	"dgs/internal/cluster"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// Eval evaluates the data-selecting pattern query Q over the
// fragmentation resident on cluster c, with the configured dGPM variant.
// It runs as a fresh per-query spec session — the sites, wherever they
// live, instantiate their handlers from the resident fragments — to
// completion (or ctx cancellation), and returns the maximum match plus
// the session's isolated network statistics. The cluster stays up;
// concurrent Eval calls on the same cluster are safe. fr must be the
// fragmentation resident on c (it sizes and documents the deployment;
// the sites evaluate against their own resident copies).
//
// pl is an advisory evaluation plan for q, shipped in the session spec
// (nil runs in declaration order, with results identical by the
// fixpoint's confluence). A nonzero traceID asks every site to record
// per-round spans, returned as a QueryTrace; traceID 0 disables tracing
// (the trace return is then nil) and leaves the session's wire traffic
// byte-identical to an untraced run.
func Eval(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, cfg Config, pl *plan.Plan, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	coord := &cluster.Collector{}
	stats, trace, err := c.Evaluate(ctx, sessionSpec(q, cfg, pl, traceID), coord, func(sess *cluster.Session) error {
		// Phase 1+2: partial evaluation and message passing to the fixpoint.
		if err := sess.Phase(ctx, &wire.Control{Op: OpStart}); err != nil {
			return err
		}
		// Phase 3: the sites report their partial matches to Sc.
		return sess.Phase(ctx, &wire.Control{Op: OpReport})
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
