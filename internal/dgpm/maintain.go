package dgpm

// Live-update maintenance (the deployment's mutable mode). Two kinds of
// long-lived maintenance sessions run multiplexed alongside query
// sessions on the same cluster:
//
//   - ApplyUpdates distributes one validated update batch: each edge op
//     is routed to the site owning its source node, which mutates its
//     resident fragment in place and notifies the target's owner when
//     the fragment starts/stops holding the target as virtual — the
//     distributed upkeep of the §2.2 boundary structure.
//
//   - Standing holds the standing queries: per-site engines stay alive
//     after the initial fixpoint, and each deletion batch is absorbed
//     incrementally — deletion deltas at the owning sites trigger
//     counter decrements whose falsifications travel the ordinary lMsg
//     paths in O(|AFF|), following the deletion case of [13] (Fan,
//     Wang, Wu, TODS 2013). Insertions can grow the relation, which the
//     removal-only engines cannot express; the deployment then calls
//     Reevaluate, which rebuilds the session against the mutated
//     fragments (the insertion fallback).
//
// Maintenance engines run with push disabled: a pushed equation is a
// frozen snapshot of a remote subsystem, which deletions would
// invalidate. Incremental evaluation — the optimization maintenance is
// about — stays on.

import (
	"context"
	"sort"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// MaintConfig is the engine configuration of standing-query sessions:
// incremental local evaluation on, push off.
func MaintConfig() Config { return Config{Incremental: true} }

// updSite applies one fragment's share of an update batch and maintains
// the boundary bookkeeping with its peers.
type updSite struct {
	frag   *partition.Fragment
	assign []int32
}

func (s *updSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	m, ok := p.(*wire.Delta)
	if !ok {
		return
	}
	// Watch/unwatch notices from peer sites about our local in-nodes
	// (the fragment ignores notices about nodes it does not own).
	for _, v := range m.Watch {
		s.frag.AddWatcher(graph.NodeID(v), from)
	}
	for _, v := range m.Unwatch {
		s.frag.RemoveWatcher(graph.NodeID(v), from)
	}
	// Edge ops routed to us as the source's owner. The driver validated
	// existence/absence against the overlay, so an op naming a target
	// outside the owner directory, or one the fragment refuses (its
	// source is not local, or the edge's presence is not what the op
	// assumes), did not come from it and is skipped. Watch/unwatch
	// notices carry the NET virtual-status change per target node: a
	// batch may drop the last crossing edge to w and add a new one, and
	// per-op notices would leave the owner's annotations out of sync.
	wasVirtual := make(map[graph.NodeID]bool)
	recordTarget := func(w graph.NodeID) (known bool) {
		if int(w) >= len(s.assign) {
			return false
		}
		if !s.frag.IsLocal(w) {
			if _, seen := wasVirtual[w]; !seen {
				wasVirtual[w] = s.frag.IsVirtual(w)
			}
		}
		return true
	}
	for _, d := range m.Dels {
		v, w := graph.NodeID(d[0]), graph.NodeID(d[1])
		if recordTarget(w) {
			_, _ = s.frag.DeleteEdge(v, w) // a refused op is skipped
		}
	}
	for i, e := range m.Ins {
		v, w := graph.NodeID(e[0]), graph.NodeID(e[1])
		if recordTarget(w) {
			_, _ = s.frag.InsertEdge(v, w, graph.Label(m.InsLabels[i]), int(s.assign[w])) // a refused op is skipped
		}
	}
	watch := make(map[int][]uint32)
	unwatch := make(map[int][]uint32)
	for w, was := range wasVirtual {
		now := s.frag.IsVirtual(w)
		owner := int(s.assign[w])
		switch {
		case now && !was:
			watch[owner] = append(watch[owner], uint32(w))
		case was && !now:
			unwatch[owner] = append(unwatch[owner], uint32(w))
		}
	}
	dests := make(map[int]bool, len(watch)+len(unwatch))
	for d := range watch {
		dests[d] = true
	}
	for d := range unwatch {
		dests[d] = true
	}
	order := make([]int, 0, len(dests))
	for d := range dests {
		order = append(order, d)
	}
	sort.Ints(order)
	for _, dest := range order {
		wl, ul := watch[dest], unwatch[dest]
		sort.Slice(wl, func(i, j int) bool { return wl[i] < wl[j] })
		sort.Slice(ul, func(i, j int) bool { return ul[i] < ul[j] })
		ctx.Send(dest, &wire.Delta{Watch: wl, Unwatch: ul})
	}
}

// nopHandler ignores all traffic (the update session's coordinator).
type nopHandler struct{}

func (nopHandler) Recv(*cluster.Ctx, int, wire.Payload) {}

// ApplyUpdates distributes one validated update batch to the owning
// sites over a maintenance session and waits for the fragment mutations
// (and their watch/unwatch follow-ups) to quiesce. Messages are
// reliable in-process, so an error means the session was torn down
// mid-batch — the deployment closed, or a site was lost (the error
// wraps cluster.ErrSiteLost) — and fragments may be left half-updated:
// some sites absorbed their delta, others did not. The caller must then
// treat the site state as inconsistent until a full re-deployment from
// its own retained fragments (dgs marks the deployment for exactly
// that). The caller recounts driver-side boundary statistics (the sites
// own the fragments).
func ApplyUpdates(c *cluster.Cluster, fr *partition.Fragmentation, dels, ins [][2]graph.NodeID) (cluster.Stats, error) {
	sess, err := c.OpenSession(cluster.SessionMaintenance, cluster.SessionSpec{Algo: AlgoUpdate}, nopHandler{})
	if err != nil {
		return cluster.Stats{}, err
	}
	defer sess.Close()

	perSite := make(map[int]*wire.Delta)
	at := func(i int) *wire.Delta {
		d := perSite[i]
		if d == nil {
			d = &wire.Delta{}
			perSite[i] = d
		}
		return d
	}
	g := fr.G
	for _, e := range dels {
		d := at(int(fr.Assign[e[0]]))
		d.Dels = append(d.Dels, [2]uint32{uint32(e[0]), uint32(e[1])})
	}
	for _, e := range ins {
		d := at(int(fr.Assign[e[0]]))
		d.Ins = append(d.Ins, [2]uint32{uint32(e[0]), uint32(e[1])})
		d.InsLabels = append(d.InsLabels, g.Label(e[1]))
	}
	start := time.Now()
	order := make([]int, 0, len(perSite))
	for i := range perSite {
		order = append(order, i)
	}
	sort.Ints(order)
	for _, i := range order {
		sess.Inject(i, perSite[i])
	}
	// The batch is one-hop plus at most one notification hop — it always
	// terminates; Background keeps a caller's cancellation from tearing
	// fragments mid-batch.
	if err := sess.WaitQuiesce(context.Background()); err != nil {
		return cluster.Stats{}, err
	}
	st := sess.Stats()
	st.Wall = time.Since(start)
	return st, nil
}

// Standing is a set of standing queries fed by ONE long-lived
// maintenance session: the member patterns are stacked into a disjoint
// union (pattern.Union), the union evaluates as a single dGPM fixpoint,
// and each member's relation is read back from its block slice. Because
// no query edge crosses blocks, the union relation restricted to a
// block is exactly that pattern's own relation — but the session-level
// costs (session setup, report round-trips, per-site engine scans, the
// deletion deltas themselves) are paid once for all members instead of
// once per member. That is the planner's multi-query sharing: K
// overlapping Watches cost one session, not K.
//
// Per-site engines survive between batches, refined incrementally under
// deletions and rebuilt under insertions.
type Standing struct {
	c  *cluster.Cluster
	fr *partition.Fragmentation

	union *pattern.Pattern
	offs  []int      // block k owns union nodes [offs[k], offs[k+1])
	pl    *plan.Plan // advisory plan for the union; may be nil

	sess  *cluster.Session
	coord *cluster.Collector

	cur  []*simulation.Match // per block
	last cluster.Stats       // the last window's isolated stats
}

// NewStanding evaluates the patterns as standing queries over one
// session. planFor, when non-nil, is consulted once with the union
// pattern and may return an advisory evaluation plan (or nil). The
// session stays registered until Close (or cluster shutdown).
func NewStanding(ctx context.Context, c *cluster.Cluster, fr *partition.Fragmentation, qs []*pattern.Pattern, planFor func(*pattern.Pattern) *plan.Plan) (*Standing, error) {
	union, offs, err := pattern.Union(qs)
	if err != nil {
		return nil, err
	}
	s := &Standing{c: c, fr: fr, union: union, offs: offs}
	if planFor != nil {
		s.pl = planFor(union)
	}
	if err := s.Reevaluate(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// Current returns member k's maintained match relation as of the last
// successfully applied window.
func (s *Standing) Current(k int) *simulation.Match { return s.cur[k] }

// LastStats reports the isolated traffic/time of the last window
// (initial evaluation, deletion refinement, or re-evaluation) — shared
// by all members, since the session is.
func (s *Standing) LastStats() cluster.Stats { return s.last }

// Reevaluate rebuilds the session from the (mutated) fragments and runs
// the standing union's fixpoint from scratch — the initial evaluation
// and the insertion fallback share this path. A fresh session is used
// because restart-in-place would race the old session's in-flight
// falsifications against the new engines.
func (s *Standing) Reevaluate(ctx context.Context) error {
	coord := &cluster.Collector{}
	sess, err := s.c.OpenSession(cluster.SessionMaintenance, sessionSpec(s.union, MaintConfig(), s.pl, 0), coord)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := sess.Phase(ctx, &wire.Control{Op: OpStart}); err != nil {
		sess.Close()
		return err
	}
	cur, err := s.collect(ctx, sess, coord)
	if err != nil {
		sess.Close()
		return err
	}
	if s.sess != nil {
		s.sess.Close()
	}
	s.sess, s.coord = sess, coord
	s.cur = cur
	s.last = sess.Stats()
	s.last.Wall = time.Since(start)
	return nil
}

// ApplyDeletions refines the standing relations under the batch's edge
// deletions: deltas are injected at the owning sites once — all members
// share the propagation — and the per-block relations are reassembled.
func (s *Standing) ApplyDeletions(ctx context.Context, dels [][2]graph.NodeID) error {
	perSite := make(map[int][][2]uint32)
	for _, e := range dels {
		i := int(s.fr.Assign[e[0]])
		perSite[i] = append(perSite[i], [2]uint32{uint32(e[0]), uint32(e[1])})
	}
	start := time.Now()
	before := s.sess.Stats()
	sites := make([]int, 0, len(perSite))
	for i := range perSite {
		sites = append(sites, i)
	}
	sort.Ints(sites)
	for _, i := range sites {
		s.sess.Inject(i, &wire.Delta{Dels: perSite[i]})
	}
	if err := s.sess.WaitQuiesce(ctx); err != nil {
		return err
	}
	cur, err := s.collect(ctx, s.sess, s.coord)
	if err != nil {
		return err
	}
	s.cur = cur
	s.last = s.sess.Stats().Minus(before)
	s.last.Wall = time.Since(start)
	return nil
}

// collect re-assembles the standing relations: the coordinator's pair
// buffer is reset (safe: the session is quiescent, so no handler runs),
// every site re-ships its local matches, and the union pairs are split
// into per-block relations. Canonicalization (the ∅-if-any-node-empty
// rule of §4.1 phase 3) is applied PER BLOCK: one unmatched member must
// empty its own relation only, not its session-mates'.
func (s *Standing) collect(ctx context.Context, sess *cluster.Session, coord *cluster.Collector) ([]*simulation.Match, error) {
	coord.Pairs = coord.Pairs[:0]
	if err := sess.Phase(ctx, &wire.Control{Op: OpReport}); err != nil {
		return nil, err
	}
	union, err := cluster.MatchFromPairs(s.union.NumNodes(), len(s.fr.Assign), coord.Pairs)
	if err != nil {
		return nil, err
	}
	per := make([]*simulation.Match, len(s.offs)-1)
	for k := range per {
		block := &simulation.Match{Sets: union.Sets[s.offs[k]:s.offs[k+1]]}
		per[k] = block.Canonical()
	}
	return per, nil
}

// Close unregisters the standing session. The last relations remain
// readable via Current.
func (s *Standing) Close() {
	if s.sess != nil {
		s.sess.Close()
	}
}
