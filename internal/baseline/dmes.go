package baseline

// dMes — the message-based vertex-centric algorithm simulating the Pregel
// model [14, 26], as described in §6: upon receiving Q, each site acts as
// a worker and, per superstep, (1) ingests the candidate vectors received
// for its virtual nodes, (2) re-evaluates all its local vertices, and
// (3) ships the candidate vectors of changed boundary vertices to the
// sites that hold them as virtual nodes, then votes. The coordinator runs
// the barrier: a new superstep starts while any site reported a change.
//
// Matching the paper's setup, only cross-site vertex messages are charged
// ("for a fair comparison, we do not assume message passing for local
// evaluation"). Full candidate vectors per boundary vertex per changed
// superstep are what make dMes ship ~2 orders of magnitude more than
// dGPM's one-shot falsifications.

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

type bitset []byte

func newBitset(n int) bitset { return make(bitset, (n+7)/8) }

func (b bitset) get(i int) bool { return b[i/8]&(1<<(i%8)) != 0 }
func (b bitset) set(i int)      { b[i/8] |= 1 << (i % 8) }
func (b bitset) clear(i int)    { b[i/8] &^= 1 << (i % 8) }
func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
func (b bitset) clone() bitset { return append(bitset(nil), b...) }

// dmesSite is one Pregel worker.
type dmesSite struct {
	q    *pattern.Pattern
	frag *partition.Fragment

	nq    int
	state map[graph.NodeID]bitset // local vertices' candidate sets
	known map[graph.NodeID]bitset // last-known vectors of virtual nodes

	inbox []*wire.Vectors // vectors buffered for the next superstep
}

func newDmesSite(q *pattern.Pattern, frag *partition.Fragment) *dmesSite {
	s := &dmesSite{q: q, frag: frag, nq: q.NumNodes()}
	s.state = make(map[graph.NodeID]bitset, len(frag.Local))
	for _, v := range frag.Local {
		bs := newBitset(s.nq)
		for u := 0; u < s.nq; u++ {
			if q.Label(pattern.QNode(u)) == frag.Labels[v] {
				bs.set(u)
			}
		}
		s.state[v] = bs
	}
	s.known = make(map[graph.NodeID]bitset, len(frag.Virtual))
	for _, v := range frag.Virtual {
		bs := newBitset(s.nq)
		for u := 0; u < s.nq; u++ {
			if q.Label(pattern.QNode(u)) == frag.Labels[v] {
				bs.set(u)
			}
		}
		s.known[v] = bs
	}
	return s
}

func (s *dmesSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	switch m := p.(type) {
	case *wire.Vectors:
		s.inbox = append(s.inbox, m)
	case *wire.Control:
		switch m.Op {
		case opSuper:
			s.superstep(ctx, m.Arg)
		case opReport:
			var pairs []wire.VarRef
			for _, v := range s.frag.Local {
				bs := s.state[v]
				for u := 0; u < s.nq; u++ {
					if bs.get(u) {
						pairs = append(pairs, wire.VarRef{U: uint16(u), V: uint32(v)})
					}
				}
			}
			ctx.Send(cluster.Coordinator, &wire.Matches{Frag: uint16(s.frag.ID), Pairs: pairs})
		}
	}
}

// vecOf reads the current vector of any fragment-visible node.
func (s *dmesSite) vecOf(v graph.NodeID) bitset {
	if bs, ok := s.state[v]; ok {
		return bs
	}
	return s.known[v]
}

func (s *dmesSite) superstep(ctx *cluster.Ctx, step uint32) {
	// (1) ingest buffered vectors for virtual nodes.
	for _, m := range s.inbox {
		for i, nv := range m.Nodes {
			v := graph.NodeID(nv)
			if _, ok := s.known[v]; ok {
				s.known[v] = bitset(m.Bitsets[i]).clone()
			}
		}
	}
	s.inbox = nil

	// (2) vertex-centric recompute of every local vertex — deliberately
	// from scratch, per the unoptimized vertex program of [14].
	changed := make(map[graph.NodeID]bool)
	for _, v := range s.frag.Local {
		bs := s.state[v]
		next := bs.clone()
		for u := 0; u < s.nq; u++ {
			if !bs.get(u) {
				continue
			}
			ok := true
			for _, uc := range s.q.Succ(pattern.QNode(u)) {
				found := false
				for _, w := range s.frag.Succ[v] {
					if s.vecOf(w).get(int(uc)) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if !ok {
				next.clear(u)
			}
		}
		if !next.equal(bs) {
			s.state[v] = next
			changed[v] = true
		}
	}

	// (3) ship boundary vectors — one message per boundary vertex per
	// watching site, every superstep. This is the vertex-centric model's
	// redundant message passing the paper calls out (§6: "dMes incurs
	// redundant message passing"): a vertex program pushes its state to
	// cross-site in-neighbors each superstep whether or not it changed
	// (no combiner), which is why dMes ships orders of magnitude more
	// than dGPM's once-per-variable falsifications.
	for _, v := range s.frag.InNodes {
		for _, w := range s.frag.InWatchers[v] {
			ctx.Send(w, &wire.Vectors{
				NumQ:    uint16(s.nq),
				Nodes:   []uint32{uint32(v)},
				Bitsets: [][]byte{s.state[v].clone()},
			})
		}
	}
	// (4) vote.
	ctx.Send(cluster.Coordinator, &wire.Control{Op: opVote, Arg: step, Flag: len(changed) > 0 || step == 0})
}

// dmesCoord runs the superstep barrier and collects final matches.
type dmesCoord struct {
	cluster.Collector
	n       int
	votes   int
	changed bool
}

func (c *dmesCoord) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	switch m := p.(type) {
	case *wire.Control:
		if m.Op != opVote {
			return
		}
		c.votes++
		c.changed = c.changed || m.Flag
		if c.votes == c.n {
			step := m.Arg
			c.votes = 0
			again := c.changed
			c.changed = false
			if again {
				ctx.AddRounds(1)
				ctx.Broadcast(&wire.Control{Op: opSuper, Arg: step + 1})
			}
		}
	case *wire.Matches:
		c.Collector.Recv(ctx, from, m)
	}
}

// EvalDMes evaluates Q with the superstep vertex-centric algorithm as
// one session on a live cluster. A nonzero traceID returns the session's
// QueryTrace (nil otherwise).
func EvalDMes(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	coord := &dmesCoord{n: c.NumSites()}
	spec := cluster.SessionSpec{Algo: AlgoDMes, Query: pattern.EncodeBinary(q), TraceID: traceID}
	stats, trace, err := c.Evaluate(ctx, spec, coord, func(sess *cluster.Session) error {
		if err := sess.Phase(ctx, &wire.Control{Op: opSuper, Arg: 0}); err != nil {
			return err
		}
		return sess.Phase(ctx, &wire.Control{Op: opReport})
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
