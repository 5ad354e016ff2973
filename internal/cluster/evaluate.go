package cluster

// The query-session runner: the one place that knows how a one-shot
// query session is driven (Fig. 3 / §4.1), with the shared assembly
// pieces — the match collector and the pairs→relation function.

import (
	"context"
	"fmt"
	"slices"
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
//
// A site reports each query node's matches ascending, so a node's set
// arrives as one ascending run per reporting site. The set is appended
// as it comes, a new run starting wherever an ID is not above the one
// before it, and the runs are then merged (mergeRuns): no sort. Any
// order is accepted — a report out of order only makes more runs — and
// the result is the sorted union, duplicates included.
func MatchFromPairs(nq, nv int, pairs []wire.VarRef) (*simulation.Match, error) {
	m := simulation.NewMatch(nq)
	starts := make([][]int, nq) // per set, where each run after the first starts
	for _, r := range pairs {
		if int(r.U) >= nq || int64(r.V) >= int64(nv) {
			return nil, fmt.Errorf("cluster: site reported match (%d,%d) outside |Vq|=%d, |V|=%d", r.U, r.V, nq, nv)
		}
		set, v := m.Sets[r.U], graph.NodeID(r.V)
		if n := len(set); n > 0 && v <= set[n-1] {
			starts[r.U] = append(starts[r.U], n)
		}
		m.Sets[r.U] = append(set, v)
	}
	var buf []graph.NodeID
	for u, set := range m.Sets {
		if len(starts[u]) > 0 {
			buf = mergeRuns(set, starts[u], buf)
		}
	}
	return m, nil
}

// mergeRuns sorts s, ascending runs that start at 0 and at each of
// starts, by merging adjacent runs pairwise, pass after pass, between s
// and buf: O(|s| log runs). It returns buf, grown, for the next call.
func mergeRuns(s []graph.NodeID, starts []int, buf []graph.NodeID) []graph.NodeID {
	bounds := make([]int, 0, len(starts)+2) // run i is [bounds[i], bounds[i+1])
	bounds = append(append(append(bounds, 0), starts...), len(s))
	buf = slices.Grow(buf[:0], len(s))[:len(s)]
	src, dst := s, buf
	for len(bounds) > 2 {
		runs := len(bounds) - 1
		// Run pair i, i+1 becomes run i/2. Its end is written at i/2+1,
		// which the loop has read by then.
		for i := 0; i < runs; i += 2 {
			lo, end := bounds[i], bounds[min(i+2, runs)]
			if i+1 == runs {
				copy(dst[lo:end], src[lo:end])
			} else {
				merge(dst[lo:end], src[lo:bounds[i+1]], src[bounds[i+1]:end])
			}
			bounds[i/2+1] = end
		}
		bounds = bounds[:(runs+1)/2+1]
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return buf
}

// merge writes the ascending merge of a and b into dst, len(a)+len(b)
// long.
func merge(dst, a, b []graph.NodeID) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || i < len(a) && a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}
