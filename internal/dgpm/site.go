package dgpm

// The per-site protocol logic of dGPM (Fig. 3/4): phase 1 partial
// evaluation on the start signal, phase 2 asynchronous exchange of
// falsified variables along the local dependency graph (procedure lMsg),
// plus the push operation, and phase 3 reporting local matches Q(Fi) to
// the coordinator.

import (
	"math"
	"slices"
	"sort"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/wire"
)

// Control opcodes shared by the drivers in this module.
const (
	OpStart  = 1 // run initial partial evaluation
	OpReport = 2 // ship local matches to the coordinator
)

// Config selects the dGPM variant.
type Config struct {
	// Incremental enables the incremental local evaluation of §4.2.
	// Disabled, every received batch triggers re-evaluation from scratch
	// (the dGPMNOpt baseline).
	Incremental bool
	// Push enables the push operation of §4.2.
	Push bool
	// Theta is the push benefit threshold θ (the paper fixes 0.2).
	Theta float64
}

// DefaultConfig is full dGPM: both optimizations on, θ = 0.2 (§6).
func DefaultConfig() Config { return Config{Incremental: true, Push: true, Theta: 0.2} }

// NOptConfig is dGPMNOpt: no incremental evaluation, no push.
func NOptConfig() Config { return Config{} }

type site struct {
	q      *pattern.Pattern
	frag   *partition.Fragment
	assign []int32 // owner directory (IRI/hashing stand-in, §2.2)
	cfg    Config
	// pl is the session's advisory evaluation plan (nil: declaration
	// order). Rebuild paths reuse it — the plan depends only on the
	// query and the deployment's immutable label statistics.
	pl *plan.Plan
	// key files and finds the session's prepared engine (preparedKey).
	key string

	eng *Engine

	// extraWatch[li] extends local li's watchers with reroute
	// destinations (§4.2 dependency-graph rewiring after a push); nil
	// until the first reroute.
	extraWatch [][]int
	// pushDecided is set once the benefit test has been evaluated; a site
	// outsources its equations at most once per session.
	pushDecided bool
	// perDest is flush's per-destination scratch, indexed by site ID.
	perDest [][]wire.VarRef
	// dirty marks engine changes applied by Recv whose falsifications
	// EndRun has not shipped yet.
	dirty bool

	// dGPMNOpt state: everything external learned so far, and the in-node
	// falsifications already reported, so rebuilds do not resend.
	extFalse []wire.VarRef
	reported map[wire.VarRef]bool

	// pending buffers messages that raced ahead of the start signal: a
	// fast neighbor may evaluate and ship falsifications before the
	// coordinator's broadcast reaches this site.
	pending []pendingMsg
}

type pendingMsg struct {
	from int
	p    wire.Payload
}

func newSite(q *pattern.Pattern, frag *partition.Fragment, assign []int32, cfg Config, pl *plan.Plan, key string) *site {
	return &site{
		q:        q,
		frag:     frag,
		assign:   assign,
		cfg:      cfg,
		pl:       pl,
		key:      key,
		reported: make(map[wire.VarRef]bool),
	}
}

func (s *site) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	if s.eng == nil {
		// Not started yet: only OpStart may be processed now.
		if c, ok := p.(*wire.Control); !ok || c.Op != OpStart {
			s.pending = append(s.pending, pendingMsg{from, p})
			return
		}
	}
	switch m := p.(type) {
	case *wire.Control:
		switch m.Op {
		case OpStart:
			s.eng = prepare(s.q, s.frag, s.pl, s.key)
			if !s.cfg.Incremental {
				// Seed the reported set from the initial evaluation so a
				// later rebuild does not resend these.
				s.flushTracked(ctx)
			} else {
				s.flush(ctx)
			}
			s.maybePush(ctx)
			pending := s.pending
			s.pending = nil
			for _, m := range pending {
				s.Recv(ctx, m.from, m.p)
			}
		case OpReport:
			s.EndRun(ctx) // nothing learned may stay unshipped behind the answer
			ctx.Send(cluster.Coordinator, &wire.Matches{
				Frag:  uint16(s.frag.ID),
				Pairs: s.eng.LocalMatches(),
			})
		}
	case *wire.Falsify:
		if s.cfg.Incremental {
			s.eng.ApplyFalsifications(m.Pairs)
			s.applied(ctx)
			return
		}
		// dGPMNOpt: full re-evaluation from scratch on every message — a
		// fresh build, never a restore, as the ablation measures.
		ctx.AddRounds(1)
		s.extFalse = append(s.extFalse, m.Pairs...)
		s.eng = NewEnginePlanned(s.q, s.frag, s.pl)
		s.eng.ApplyFalsifications(s.extFalse)
		s.flushTracked(ctx)
		s.maybePush(ctx)
	case *wire.Push:
		s.eng.InstallEquations(m.Eqs)
		s.applied(ctx)
	case *wire.Delta:
		// Maintenance sessions only (query sessions never receive deltas):
		// refine the standing engine under the batch's edge deletions; the
		// resulting falsifications ship along the usual lMsg paths.
		dels := make([][2]graph.NodeID, len(m.Dels))
		for i, d := range m.Dels {
			dels[i] = [2]graph.NodeID{graph.NodeID(d[0]), graph.NodeID(d[1])}
		}
		s.eng.ApplyEdgeDeletions(dels)
		s.applied(ctx)
	case *wire.Reroute:
		dest := int(m.Dest)
		if dest >= ctx.NumSites() {
			return // no such site: flush indexes its scratch by destination
		}
		var backfill []wire.VarRef
		for _, nv := range m.Nodes {
			v := graph.NodeID(nv)
			li, ok := s.eng.vt.Find(v)
			if !ok || li >= s.eng.nl {
				continue // only a local node's falsifications are ours to forward
			}
			if s.extraWatch == nil {
				s.extraWatch = make([][]int, s.eng.nl)
			}
			if !slices.Contains(s.extraWatch[li], dest) {
				s.extraWatch[li] = append(s.extraWatch[li], dest)
			}
			// The new watcher missed falsifications that predate the
			// reroute; resend them (falsifications are idempotent).
			for _, r := range s.eng.DeadLocalVars(v) {
				if s.read(pattern.QNode(r.U)) {
					backfill = append(backfill, r)
				}
			}
		}
		if len(backfill) > 0 {
			ctx.Send(dest, &wire.Falsify{Pairs: backfill})
		}
	}
}

// applied notes that Recv changed the engine. An incremental site ships
// the consequences at the end of the drained run (EndRun); the
// rebuild-per-message ablation arm, whose next rebuild would discard
// them, ships at once.
func (s *site) applied(ctx *cluster.Ctx) {
	s.dirty = true
	if !s.cfg.Incremental {
		s.EndRun(ctx)
	}
}

// EndRun implements cluster.RunEnder: one round of incremental lEval
// (§4.1/§4.2) over "the set of falsified variables received". Recv has
// already applied every queued Falsify, Push and Delta of the run to the
// engine; here their combined consequences ship once — one deduplicated
// message per watching site — and count as one round, however many
// messages the run held. Truth values only fall and kills commute, so
// the variables shipped over a session are the same as under
// message-at-a-time evaluation; only their packaging differs.
func (s *site) EndRun(ctx *cluster.Ctx) {
	if !s.dirty {
		return
	}
	s.dirty = false
	ctx.AddRounds(1)
	s.flush(ctx)
	s.maybePush(ctx)
}

// flush routes the engine's freshly falsified in-node variables to every
// site that watches them (procedure lMsg, Fig. 4).
func (s *site) flush(ctx *cluster.Ctx) {
	s.route(ctx, s.eng.drain())
}

// flushTracked is flush with resend suppression for the rebuild-from-
// scratch variant: a rebuild re-derives earlier falsifications, which must
// not be shipped again.
func (s *site) flushTracked(ctx *cluster.Ctx) {
	kills := s.eng.drain()
	fresh := kills[:0]
	for _, x := range kills {
		if r := s.eng.ref(x); !s.reported[r] {
			s.reported[r] = true
			fresh = append(fresh, x)
		}
	}
	s.route(ctx, fresh)
}

// route sends each falsified in-node variable to the sites holding the
// in-node as a virtual node, plus any rerouted push parents. One message
// per destination, destinations ascending, each listing its variables in
// kill order. The watchers are the engine index's dense rows — unless
// that index no longer describes the fragment (a standing engine, refined
// under the deletions that mutated it), when they are the fragment's live
// annotations. Only variables some receiver reads are shipped (read).
//
// No message repeats a variable, and none is sorted: a variable dies
// once, a watcher row lists distinct sites, the Reroute handler files a
// destination at most once per extraWatch row, and an extraWatch
// destination the watcher row already lists is skipped — its row ends
// with the variable, since kills are routed one at a time. Receivers do
// not depend on the order within a message: kills commute.
func (s *site) route(ctx *cluster.Ctx, kills []visVar) {
	if len(kills) == 0 {
		return
	}
	if s.perDest == nil {
		s.perDest = make([][]wire.VarRef, ctx.NumSites())
	}
	ix := s.eng.ix
	current := ix != nil && s.frag.IndexCurrent(ix)
	for _, x := range kills {
		if !s.read(x.u) {
			continue
		}
		r, li := s.eng.ref(x), x.vi
		if current {
			for _, w := range ix.Watchers(li) {
				s.perDest[w] = append(s.perDest[w], r)
			}
		} else {
			for _, w := range s.frag.InWatchers[graph.NodeID(r.V)] {
				s.perDest[w] = append(s.perDest[w], r)
			}
		}
		if s.extraWatch != nil {
			for _, w := range s.extraWatch[li] {
				// A destination the watcher row lists already ends with r.
				if row := s.perDest[w]; len(row) == 0 || row[len(row)-1] != r {
					s.perDest[w] = append(row, r)
				}
			}
		}
	}
	for d, refs := range s.perDest {
		if len(refs) == 0 {
			continue
		}
		// Send encodes before it returns, so the row is free for reuse.
		ctx.Send(d, &wire.Falsify{Pairs: refs})
		s.perDest[d] = refs[:0]
	}
}

// read reports whether a variable X(u,v) has readers at other sites. A
// root u of Q (no parent) feeds no counter and no pushed equation
// anywhere, so its variables are never shipped — as dGPMd never ships
// its top-rank ones.
func (s *site) read(u pattern.QNode) bool { return len(s.q.Pred(u)) > 0 }

// pushBudget is the benefit test B(Si) = |O'|/(m·|I'|) ≥ θ (§4.2) solved
// for m: the largest byte count the test still accepts. B only falls as m
// grows, so the budget is found by bisection on the test's own float
// expression — "m ≤ budget" and "B(m) ≥ θ" agree for every integer m,
// rounding included. θ ≤ 0 accepts any m: the budget is math.MaxInt.
func pushBudget(virtV, inV int, theta float64) int {
	return sort.Search(math.MaxInt, func(m int) bool {
		return float64(virtV)/(float64(m+1)*float64(inV)) < theta
	})
}

// maybePush decides the push operation of §4.2, once per site per
// session, at the site's first opportunity with unevaluated variables on
// both sides: when the benefit B(Si) = |Fi.O'| / (m·|Fi.I'|) clears θ —
// m the encoded bytes of the equations to ship, summed over parents — it
// sends each parent site its equation subsystem, with reroute requests to
// the leaf owners. The paper uses m "to suppress the overhead of
// shipment": with θ=0.2 only small, high-leverage subsystems clear the
// bar, and shipping large systems wholesale would inflate DS well past
// the no-push protocol, defeating Theorem 2's bound in practice.
//
// The test is Engine.planPush under pushBudget: exact, and abandoned at
// the first bound on m that exceeds the budget.
func (s *site) maybePush(ctx *cluster.Ctx) {
	if !s.cfg.Push || s.eng == nil || s.pushDecided {
		return
	}
	inV, virtV := s.eng.UnevaluatedCounts()
	if inV == 0 || virtV == 0 {
		return
	}
	s.pushDecided = true
	for _, pl := range s.eng.planPush(pushBudget(virtV, inV, s.cfg.Theta)) {
		ctx.Send(pl.dest, &wire.Push{Origin: uint16(s.frag.ID), Eqs: pl.eqs})
		// Ask each leaf owner to also feed the parent.
		perOwner := make(map[int][]uint32)
		for _, leaf := range pl.leaves {
			owner := int(s.assign[leaf])
			if owner == pl.dest {
				continue // the parent owns this leaf; it resolves locally
			}
			perOwner[owner] = append(perOwner[owner], uint32(leaf))
		}
		owners := make([]int, 0, len(perOwner))
		for o := range perOwner {
			owners = append(owners, o)
		}
		sort.Ints(owners)
		for _, o := range owners {
			ctx.Send(o, &wire.Reroute{Dest: uint16(pl.dest), Nodes: perOwner[o]})
		}
	}
}
