// Package dagsim implements dGPMd (§5.1): distributed graph simulation
// for DAG patterns (or DAG data graphs) with rank-scheduled batching.
//
// For a DAG pattern Q, the topological rank r(u) — 0 for leaves, else
// 1 + max over children — stratifies the Boolean variables: X(u,v)
// depends only on variables of strictly smaller rank. dGPMd therefore
// ships falsifications in at most d waves: a site emits its rank-r batch
// (one message per watching site, possibly empty) as soon as every
// expected batch of rank < r has arrived, because at that point its
// rank-r variables are final. No fixpoint iteration is needed — after d
// waves every variable is final, which is what makes dGPMd parallel
// scalable in response time for fixed |F| (Theorem 3).
//
// When the data graph G is a DAG and Q is cyclic, G cannot match Q (every
// query node on a cycle would need an infinite path), so Q(G) = ∅ with no
// distributed work at all.
package dagsim

import (
	"context"
	"fmt"
	"sort"

	"dgs/internal/cluster"
	"dgs/internal/dagcheck"
	"dgs/internal/dgpm"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// rankInfo precomputes, per label, the set of variable ranks other sites
// may need: ranks r(u) ≥ 1 of candidate query nodes u that have a parent
// (top-rank variables feed nobody and are never shipped — "no data needs
// to be shipped when r = d").
type rankInfo struct {
	ranks   []int // per query node
	maxRank int
	byLabel map[graph.Label][]int // sorted, deduplicated shipping ranks
}

func newRankInfo(q *pattern.Pattern) (*rankInfo, bool) {
	r, ok := q.Ranks()
	if !ok {
		return nil, false
	}
	ri := &rankInfo{ranks: r, byLabel: make(map[graph.Label][]int)}
	tmp := make(map[graph.Label]map[int]bool)
	for u := 0; u < q.NumNodes(); u++ {
		if r[u] > ri.maxRank {
			ri.maxRank = r[u]
		}
		if r[u] == 0 || len(q.Pred(pattern.QNode(u))) == 0 {
			continue
		}
		l := q.Label(pattern.QNode(u))
		if tmp[l] == nil {
			tmp[l] = make(map[int]bool)
		}
		tmp[l][r[u]] = true
	}
	for l, set := range tmp {
		for rr := range set {
			ri.byLabel[l] = append(ri.byLabel[l], rr)
		}
		sort.Ints(ri.byLabel[l])
	}
	return ri, true
}

// shipRanks reports the ranks at which variables of a node with label l
// must be shipped.
func (ri *rankInfo) shipRanks(l graph.Label) []int { return ri.byLabel[l] }

type dagSite struct {
	q    *pattern.Pattern
	frag *partition.Fragment
	ri   *rankInfo

	eng *dgpm.Engine

	// need/got count expected and received batches per rank.
	need []int
	got  []int
	// sendPlan[r] lists watcher sites expecting our rank-r batch.
	sendPlan [][]int
	// rankBuf[r] accumulates falsified in-node variables of rank r.
	rankBuf [][]wire.VarRef
	// nextSend is the next rank wave to emit (1-based).
	nextSend int

	pending []wire.Payload
}

func newDagSite(q *pattern.Pattern, frag *partition.Fragment, ri *rankInfo) *dagSite {
	s := &dagSite{q: q, frag: frag, ri: ri, nextSend: 1}
	d := ri.maxRank
	s.need = make([]int, d+1)
	s.got = make([]int, d+1)
	s.rankBuf = make([][]wire.VarRef, d+1)
	s.sendPlan = make([][]int, d+1)

	// Incoming expectation: one batch per (owner site, rank) for which the
	// owner has an in-node we hold as virtual with a shippable rank.
	inSeen := make(map[[2]int]bool)
	for _, v := range frag.Virtual {
		owner := frag.Owner[v]
		for _, rr := range ri.shipRanks(frag.Labels[v]) {
			k := [2]int{owner, rr}
			if !inSeen[k] {
				inSeen[k] = true
				s.need[rr]++
			}
		}
	}
	// Outgoing plan: symmetric computation on our in-nodes.
	outSeen := make(map[[2]int]bool)
	for _, v := range frag.InNodes {
		for _, w := range frag.InWatchers[v] {
			for _, rr := range ri.shipRanks(frag.Labels[v]) {
				k := [2]int{w, rr}
				if !outSeen[k] {
					outSeen[k] = true
					s.sendPlan[rr] = append(s.sendPlan[rr], w)
				}
			}
		}
	}
	for _, p := range s.sendPlan {
		sort.Ints(p)
	}
	return s
}

func (s *dagSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	if s.eng == nil {
		if c, ok := p.(*wire.Control); !ok || c.Op != dgpm.OpStart {
			s.pending = append(s.pending, p)
			return
		}
	}
	switch m := p.(type) {
	case *wire.Control:
		switch m.Op {
		case dgpm.OpStart:
			s.eng = dgpm.NewEngine(s.q, s.frag)
			s.bufferDeaths(s.eng.Drain())
			s.advance(ctx)
			for _, buf := range s.pending {
				s.Recv(ctx, from, buf)
			}
			s.pending = nil
		case dgpm.OpReport:
			ctx.Send(cluster.Coordinator, &wire.Matches{
				Frag:  uint16(s.frag.ID),
				Pairs: s.eng.LocalMatches(),
			})
		}
	case *wire.RankBatch:
		rr := int(m.Rank)
		if rr >= len(s.got) {
			return
		}
		s.got[rr]++
		s.eng.ApplyFalsifications(m.Pairs)
		s.bufferDeaths(s.eng.Drain())
		s.advance(ctx)
	}
}

// bufferDeaths files freshly falsified in-node variables under their rank.
func (s *dagSite) bufferDeaths(pairs []wire.VarRef) {
	for _, r := range pairs {
		rr := s.ri.ranks[r.U]
		if rr >= 1 && rr < len(s.rankBuf) && len(s.q.Pred(pattern.QNode(r.U))) > 0 {
			s.rankBuf[rr] = append(s.rankBuf[rr], r)
		}
	}
}

// advance emits every wave whose prerequisites are complete: the rank-r
// batch goes out once all expected batches of rank < r have arrived.
func (s *dagSite) advance(ctx *cluster.Ctx) {
	for s.nextSend < len(s.need) {
		ready := true
		for rr := 1; rr < s.nextSend; rr++ {
			if s.got[rr] < s.need[rr] {
				ready = false
				break
			}
		}
		if !ready {
			return
		}
		rr := s.nextSend
		s.nextSend++
		if len(s.sendPlan[rr]) == 0 {
			continue
		}
		ctx.AddRounds(1)
		// Partition the buffered rank-rr deaths per watcher.
		perDest := make(map[int][]wire.VarRef)
		for _, r := range s.rankBuf[rr] {
			v := graph.NodeID(r.V)
			for _, w := range s.frag.InWatchers[v] {
				perDest[w] = append(perDest[w], r)
			}
		}
		for _, w := range s.sendPlan[rr] {
			ctx.Send(w, &wire.RankBatch{Rank: uint16(rr), Pairs: perDest[w]})
		}
	}
}

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
	_, qIsDAG := newRankInfo(q)
	if !qIsDAG {
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
	spec := cluster.SessionSpec{Algo: Algo, Query: pattern.EncodeBinary(q), TraceID: traceID}
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

// Algo is the registered name of the dGPMd site. The spec carries only
// the (DAG) query; each site re-derives the rank schedule from it.
const Algo = "dgpmd"

func init() {
	cluster.RegisterAlgorithm(Algo, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		ri, ok := newRankInfo(q)
		if !ok {
			return nil, fmt.Errorf("dagsim: spec query is cyclic")
		}
		return newDagSite(q, frag, ri), nil
	})
}
