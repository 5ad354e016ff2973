package baseline

// dMes — the message-based vertex-centric algorithm simulating the Pregel
// model [14, 26], as described in §6: upon receiving Q, each site acts as
// a worker and, per superstep, (1) ingests the candidate vectors its
// peers shipped for its virtual nodes in the previous superstep, (2) re-evaluates all its local vertices, and
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
	ix   *partition.Index
	lis  []int32 // index in ix of each local node, in Local order

	nq  int
	vec []bitset // by index in ix: local vertices' candidate sets, virtual nodes' last-known vectors

	// inbox holds the vectors received and not yet ingested, in arrival
	// order; took[vi-NL] is the last superstep that ingested one into
	// virtual node vi.
	inbox []pendingVec
	took  []uint32
}

// pendingVec is a received candidate vector for virtual node vi.
type pendingVec struct {
	vi   int32
	bits []byte
}

func newDmesSite(q *pattern.Pattern, frag *partition.Fragment) *dmesSite {
	ix := frag.Index()
	s := &dmesSite{q: q, frag: frag, ix: ix, lis: localIndices(frag, ix), nq: q.NumNodes(), vec: make([]bitset, len(ix.Vis)),
		took: make([]uint32, len(ix.Vis)-int(ix.NL))}
	for vi, l := range ix.Labels {
		s.vec[vi] = newBitset(s.nq)
		for u := 0; u < s.nq; u++ {
			if q.Label(pattern.QNode(u)) == l {
				s.vec[vi].set(u)
			}
		}
	}
	return s
}

func (s *dmesSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	switch m := p.(type) {
	case *wire.Vectors:
		for i, nv := range m.Nodes {
			if vi, ok := s.ix.Find(graph.NodeID(nv)); ok && vi >= s.ix.NL {
				s.inbox = append(s.inbox, pendingVec{vi: vi, bits: m.Bitsets[i]})
			}
		}
	case *wire.Control:
		switch m.Op {
		case opSuper:
			s.superstep(ctx, m.Arg)
		case opReport:
			var pairs []wire.VarRef
			for i, v := range s.frag.Local {
				bs := s.vec[s.lis[i]]
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

func (s *dmesSite) superstep(ctx *cluster.Ctx, step uint32) {
	// (1) ingest buffered vectors for virtual nodes: at superstep k ≥ 1,
	// the one each owner shipped at superstep k−1. Vectors carry no
	// superstep, but a virtual node receives exactly one per superstep
	// from its owner, FIFO, so that is its oldest pending vector. A peer
	// that started superstep k ahead of this site may already have sent
	// its next one; it stays in the inbox for superstep k+1. Superstep 0
	// ingests nothing: whatever arrived was shipped at superstep 0.
	if step > 0 {
		rest := s.inbox[:0]
		for _, pv := range s.inbox {
			if t := &s.took[pv.vi-s.ix.NL]; *t != step {
				*t = step
				s.vec[pv.vi] = bitset(pv.bits).clone()
				continue
			}
			rest = append(rest, pv)
		}
		clear(s.inbox[len(rest):])
		s.inbox = rest
	}

	// (2) vertex-centric recompute of every local vertex — deliberately
	// from scratch, per the unoptimized vertex program of [14].
	changed := false
	for _, li := range s.lis {
		bs := s.vec[li]
		next := bs.clone()
		for u := 0; u < s.nq; u++ {
			if !bs.get(u) {
				continue
			}
			ok := true
			for _, uc := range s.q.Succ(pattern.QNode(u)) {
				found := false
				for _, wi := range s.ix.Succ[li] {
					if s.vec[wi].get(int(uc)) {
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
			s.vec[li] = next
			changed = true
		}
	}

	// (3) ship boundary vectors — one message per boundary vertex per
	// watching site, every superstep. This is the vertex-centric model's
	// redundant message passing the paper calls out (§6: "dMes incurs
	// redundant message passing"): a vertex program pushes its state to
	// cross-site in-neighbors each superstep whether or not it changed
	// (no combiner), which is why dMes ships orders of magnitude more
	// than dGPM's once-per-variable falsifications.
	for k, v := range s.frag.InNodes {
		for _, w := range s.frag.InWatchers[v] {
			ctx.Send(w, &wire.Vectors{
				NumQ:    uint16(s.nq),
				Nodes:   []uint32{uint32(v)},
				Bitsets: [][]byte{s.vec[s.ix.In[k]].clone()},
			})
		}
	}
	// (4) vote.
	ctx.Send(cluster.Coordinator, &wire.Control{Op: opVote, Arg: step, Flag: changed || step == 0})
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
