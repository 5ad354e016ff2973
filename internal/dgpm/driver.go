package dgpm

// The dGPM driver: wires one site handler per fragment plus a collecting
// coordinator onto a cluster session and runs the three phases of
// Fig. 3 — (1) partial evaluation, (2) asynchronous message passing to
// the fixpoint, (3) assembly of Q(G) at the coordinator Sc.
//
// The handlers install onto a live, persistent cluster (Eval): the same
// substrate serves many queries, each as its own session with isolated
// stats. Run remains as a convenience that evaluates one query on a
// throwaway cluster.

import (
	"context"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// collector is the coordinator handler: it accumulates per-site matches.
// Recv is serial per actor, so no locking is needed.
type collector struct {
	nq    int
	pairs []wire.VarRef
}

func (c *collector) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	if m, ok := p.(*wire.Matches); ok {
		c.pairs = append(c.pairs, m.Pairs...)
	}
}

// assemble turns collected pairs into the canonical match relation: the
// union of partial matches, or ∅ if some query node has no match (§4.1
// phase 3).
func (c *collector) assemble() *simulation.Match {
	m := simulation.NewMatch(c.nq)
	for _, r := range c.pairs {
		m.Sets[r.U] = append(m.Sets[r.U], graph.NodeID(r.V))
	}
	m.Sort()
	return m.Canonical()
}

// Eval evaluates the data-selecting pattern query Q over the
// fragmentation resident on cluster c, with the configured dGPM variant.
// It opens a fresh per-query spec session — the sites, wherever they
// live, instantiate their handlers from the resident fragments — runs
// the protocol to completion (or ctx cancellation), and returns the
// maximum match plus the session's isolated network statistics. The
// cluster stays up; concurrent Eval calls on the same cluster are safe.
// fr must be the fragmentation resident on c (it sizes and documents the
// deployment; the sites evaluate against their own resident copies).
func Eval(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, cfg Config) (*simulation.Match, cluster.Stats, error) {
	return EvalPlanned(ctx, c, q, fr, cfg, nil)
}

// EvalPlanned is Eval with an advisory evaluation plan for q (nil runs
// in declaration order, with results identical by the fixpoint's
// confluence). The plan ships in the session spec.
func EvalPlanned(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, cfg Config, pl *plan.Plan) (*simulation.Match, cluster.Stats, error) {
	m, st, _, err := EvalPlannedTraced(ctx, c, q, fr, cfg, pl, 0)
	return m, st, err
}

// EvalPlannedTraced is EvalPlanned with distributed tracing: a nonzero
// traceID asks every site to record per-round spans, collected after
// the session closes into a QueryTrace. traceID 0 disables tracing (the
// trace return is then nil) and leaves the session's wire traffic
// byte-identical to an untraced run.
func EvalPlannedTraced(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, cfg Config, pl *plan.Plan, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	coord := &collector{nq: q.NumNodes()}
	spec := cluster.SessionSpec{Algo: Algo, Query: pattern.EncodeBinary(q), Config: EncodeConfig(cfg), TraceID: traceID}
	if pl != nil {
		spec.Planner, spec.Plan = pl.Planner, pl.Encode()
	}
	sess, err := c.OpenSession(cluster.SessionQuery, spec, coord)
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	defer sess.Close()

	start := time.Now()
	// Phase 1+2: partial evaluation and message passing to the fixpoint.
	sess.Broadcast(&wire.Control{Op: OpStart})
	if err := sess.WaitQuiesce(ctx); err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	// Phase 3: assemble Q(G) at the coordinator.
	sess.Broadcast(&wire.Control{Op: OpReport})
	if err := sess.WaitQuiesce(ctx); err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	stats := sess.Stats()
	stats.Wall = time.Since(start)
	match := coord.assemble()
	// Span collection happens after the close: remote hosts ship their
	// spans when they process the CLOSE frame.
	sess.Close()
	trace, err := sess.Trace(ctx)
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	return match, stats, trace, nil
}

// Run evaluates one query on a throwaway single-query cluster with a
// free network — the fragment-once/serve-many path is Eval.
func Run(q *pattern.Pattern, fr *partition.Fragmentation, cfg Config) (*simulation.Match, cluster.Stats) {
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	m, st, err := Eval(context.Background(), c, q, fr, cfg)
	if err != nil {
		// Background context and a private cluster: unreachable.
		panic(err)
	}
	return m, st
}

// RunBoolean evaluates Q as a Boolean pattern: true iff G matches Q.
// Protocol phases are identical to the data-selecting case; only the
// coordinator's final check differs (§4.1 "Boolean queries").
func RunBoolean(q *pattern.Pattern, fr *partition.Fragmentation, cfg Config) (bool, cluster.Stats) {
	m, stats := Run(q, fr, cfg)
	return m.Ok(), stats
}
