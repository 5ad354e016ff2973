package cluster

// The query-session runner: the one place that knows how a one-shot
// query session is driven (Fig. 3 / §4.1), with the shared assembly
// pieces — the match collector and the pairs→relation function.

import (
	"context"
	"fmt"
	"time"

	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// Evaluate runs one query session: it opens a SessionQuery session from
// spec with coord as the coordinator handler, times run — the
// algorithm's phases, plus whatever coordinator-side work belongs on the
// PT clock — into Stats.Wall, closes the session, and only then collects
// the trace (nil unless spec.TraceID is nonzero). Close precedes Trace
// because remote hosts ship their spans when they process the CLOSE
// frame. The session is closed on every path, so a failed or cancelled
// query leaves nothing registered.
func (c *Cluster) Evaluate(ctx context.Context, spec SessionSpec, coord Handler, run func(*Session) error) (Stats, *obs.QueryTrace, error) {
	sess, err := c.OpenSession(SessionQuery, spec, coord)
	if err != nil {
		return Stats{}, nil, err
	}
	defer sess.Close()
	start := time.Now()
	if err := run(sess); err != nil {
		return Stats{}, nil, err
	}
	stats := sess.Stats()
	stats.Wall = time.Since(start)
	sess.Close()
	trace, err := sess.Trace(ctx)
	if err != nil {
		return Stats{}, nil, err
	}
	return stats, trace, nil
}

// Phase broadcasts p to every site and waits for the session to quiesce:
// one protocol phase driven from the coordinator.
func (s *Session) Phase(ctx context.Context, p wire.Payload) error {
	s.Broadcast(p)
	return s.WaitQuiesce(ctx)
}

// Collector is the coordinator handler of the assembly phase: it
// accumulates the per-site partial matches. Recv is serial per actor, so
// no locking is needed.
type Collector struct {
	Pairs []wire.VarRef
}

// Recv implements Handler.
func (c *Collector) Recv(ctx *Ctx, from int, p wire.Payload) {
	if m, ok := p.(*wire.Matches); ok {
		c.Pairs = append(c.Pairs, m.Pairs...)
	}
}

// MatchFromPairs builds the sorted union of site-reported partial
// matches over nq query nodes and nv data nodes. Pairs come from sites —
// on a TCP deployment, from another process — so an index outside
// either range is an error, never an out-of-range write. Callers apply
// Canonical (the ∅-if-any-node-empty rule of §4.1 phase 3).
func MatchFromPairs(nq, nv int, pairs []wire.VarRef) (*simulation.Match, error) {
	m := simulation.NewMatch(nq)
	for _, r := range pairs {
		if int(r.U) >= nq || int64(r.V) >= int64(nv) {
			return nil, fmt.Errorf("cluster: site reported match (%d,%d) outside |Vq|=%d, |V|=%d", r.U, r.V, nq, nv)
		}
		m.Sets[r.U] = append(m.Sets[r.U], graph.NodeID(r.V))
	}
	m.Sort()
	return m, nil
}
