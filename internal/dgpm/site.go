package dgpm

// The per-site protocol logic of dGPM (Fig. 3/4): phase 1 partial
// evaluation on the start signal, phase 2 asynchronous exchange of
// falsified variables along the local dependency graph (procedure lMsg),
// plus the push operation, and phase 3 reporting local matches Q(Fi) to
// the coordinator. dGPMd and dGPMt (§5) run on the same site: they start
// from the same prepared engine and differ only in how its falsified
// in-node variables are released — in rank waves (Theorem 3), or in one
// equation upload answered by one value download (Corollary 4).

import (
	"math"
	"slices"
	"sort"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
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

// release is how a site ships the in-node variables its engine falsifies,
// picked by the session's algorithm name. After the start signal the
// payload kinds each release reads are disjoint, and a site ignores the
// kinds of the others.
type release uint8

const (
	// releaseExchange is dGPM's (§4): Falsify messages to the watching
	// sites after every drained run, plus Push and Reroute.
	releaseExchange release = iota
	// releaseRanks is dGPMd's (§5.1): one RankBatch per watching site and
	// rank, each sent once every batch of a lower rank has arrived.
	releaseRanks
	// releaseUpload is dGPMt's (§5.2): one EqSystem to the coordinator on
	// the start signal, answered by one Values download.
	releaseUpload
)

type site struct {
	q      *pattern.Pattern
	frag   *partition.Fragment
	assign []int32 // owner directory (IRI/hashing stand-in, §2.2)
	cfg    Config
	// key files and finds the session's prepared engine (preparedKey).
	key string
	// rel is the release the session's algorithm name picked.
	rel release

	eng *Engine

	// extraWatch[li] extends local li's watchers with reroute
	// destinations (§4.2 dependency-graph rewiring after a push); nil
	// until the first reroute.
	extraWatch [][]int
	// perDest is the per-destination scratch of flush and of the rank
	// waves, indexed by site ID.
	perDest [][]wire.VarRef
	// dirty marks engine changes applied by Recv whose falsifications
	// EndRun has not shipped yet.
	dirty bool

	// dGPMNOpt state: everything external learned so far, and the in-node
	// falsifications already reported, so rebuilds do not resend.
	extFalse []wire.VarRef
	reported map[wire.VarRef]bool
	// fresh is flushTracked's scratch: the drained kills not yet reported.
	fresh []visVar

	// waves is dGPMd's rank-wave state; nil on the other algorithms'
	// sites.
	waves *rankWaves

	// pending buffers messages that raced ahead of the start signal: a
	// fast neighbor may evaluate and ship falsifications before the
	// coordinator's broadcast reaches this site.
	pending []pendingMsg
}

type pendingMsg struct {
	from int
	p    wire.Payload
}

func newSite(q *pattern.Pattern, frag *partition.Fragment, assign []int32, cfg Config, key string, rel release) *site {
	s := &site{q: q, frag: frag, assign: assign, cfg: cfg, key: key, rel: rel}
	if !cfg.Incremental {
		s.reported = make(map[wire.VarRef]bool)
	}
	return s
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
			s.start(ctx)
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
	case *wire.RankBatch:
		if s.waves != nil {
			s.recvWave(ctx, m)
		}
	case *wire.Values:
		if s.rel == releaseUpload {
			// Round 2: the solved values of the virtual variables (listed =
			// false). The deaths they cause on the in-node are already known
			// upstream, so none ships.
			s.eng.ApplyFalsifications(m.False)
			s.eng.drain()
		}
	default:
		if s.rel == releaseExchange {
			s.exchange(ctx, p)
		}
	}
}

// start is the start signal: the engine comes from prepare — restored
// from the snapshot filed under the session's key on the fragment's
// current index, or built and filed there — and its initial
// falsifications leave by the site's release.
func (s *site) start(ctx *cluster.Ctx) {
	s.eng = prepare(s.q, s.frag, s.key, s.cfg)
	s.perDest = make([][]wire.VarRef, ctx.NumSites())
	switch s.rel {
	case releaseExchange:
		if !s.cfg.Incremental {
			// Seed the reported set from the initial evaluation so a
			// later rebuild does not resend these.
			s.flushTracked(ctx)
		} else {
			s.flush(ctx)
		}
		s.maybePush(ctx)
	case releaseRanks:
		s.startWaves(ctx)
	case releaseUpload:
		// Round 1: the Boolean equations of the in-node variables, reduced
		// to the virtual variables they depend on, plus the variables
		// already falsified.
		ix := s.eng.ix
		in := make([]graph.NodeID, len(ix.In))
		for i, li := range ix.In {
			in[i] = ix.Vis[li]
		}
		eqs, _ := s.eng.ExtractSubsystem(in)
		ctx.Send(cluster.Coordinator, &wire.EqSystem{
			Frag:      uint16(s.frag.ID),
			Eqs:       eqs,
			FalseVars: s.eng.Drain(),
		})
	}
}

// exchange is dGPM's receive path: falsifications, pushed equations,
// maintenance deltas and reroute requests.
func (s *site) exchange(ctx *cluster.Ctx, p wire.Payload) {
	switch m := p.(type) {
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
		s.eng = NewEnginePlanned(s.q, s.frag, nil)
		s.eng.ApplyFalsifications(s.extFalse)
		s.flushTracked(ctx)
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
	// The drained list is read-only (Engine.drain): filter into scratch.
	s.fresh = s.fresh[:0]
	for _, x := range s.eng.drain() {
		if r := s.eng.ref(x); !s.reported[r] {
			s.reported[r] = true
			s.fresh = append(s.fresh, x)
		}
	}
	s.route(ctx, s.fresh)
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

// budget is the push budget cfg gives e (pushBudget of e's unevaluated
// tallies at cfg's θ); ok is false when cfg tests no push on e — push is
// off, or no in-node or no virtual-node variable is unevaluated.
func (cfg Config) budget(e *Engine) (budget int, ok bool) {
	if !cfg.Push {
		return 0, false
	}
	inV, virtV := e.UnevaluatedCounts()
	if inV == 0 || virtV == 0 {
		return 0, false
	}
	return pushBudget(virtV, inV, cfg.Theta), true
}

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
// session, on the start signal. No later moment could push: the
// unevaluated tallies are set by the build or restore and only fall
// after it (a dGPMNOpt rebuild applies only kills to a fresh build's).
// When the benefit B(Si) = |Fi.O'| / (m·|Fi.I'|) clears θ — m the
// encoded bytes of the equations to ship, summed over parents — it
// sends each parent site its equation subsystem, with reroute requests to
// the leaf owners. The paper uses m "to suppress the overhead of
// shipment": with θ=0.2 only small, high-leverage subsystems clear the
// bar, and shipping large systems wholesale would inflate DS well past
// the no-push protocol, defeating Theorem 2's bound in practice.
//
// The test is Engine.planPush under pushBudget: exact, and abandoned at
// the first bound on m that exceeds the budget. It reads only the state
// the engine's snapshot records, so a site whose engine came from one
// takes the verdict filed with it when the budget matches (pushVerdict).
func (s *site) maybePush(ctx *cluster.Ctx) {
	budget, ok := s.cfg.budget(s.eng)
	if !ok {
		return
	}
	for _, pl := range s.eng.pushVerdict(budget) {
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
