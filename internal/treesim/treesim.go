// Package treesim implements dGPMt (§5.2): distributed graph simulation
// over tree data graphs whose fragments are connected subtrees, with two
// rounds of site↔coordinator communication and data shipment O(|Q||F|) —
// the parallel-scalable-in-data-shipment case of Corollary 4, extending
// the XPath partial-evaluation bounds of [10] to graph simulation.
//
// Protocol:
//
//  1. Every site runs lEval on its subtree and ships the Boolean
//     equations of its root (in-node) variables — reduced to the virtual
//     variables of its child fragments' roots — plus the variables it
//     already falsified, to the coordinator.
//  2. The coordinator unifies the equations into one system and solves it
//     bottom-up over the fragment tree (greatest-fixpoint propagation,
//     linear here because the system is acyclic), then ships each site
//     the solved values of exactly the virtual variables it depends on.
//  3. Sites finalize their local matches; assembly proceeds as in dGPM.
//
// Because each fragment is a connected subtree, it has at most one
// in-node (its root), so each round-1 upload is a single vector of
// O(|Q|)-reduced equations and each round-2 download is one value list —
// 2|F| messages, O(|Q||F|) bytes in total.
package treesim

import (
	"context"
	"fmt"

	"dgs/internal/cluster"
	"dgs/internal/dgpm"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

type treeSite struct {
	q    *pattern.Pattern
	frag *partition.Fragment

	eng     *dgpm.Engine
	pending []wire.Payload
}

func (s *treeSite) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
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
			eqs, _ := s.eng.ExtractSubsystem(s.frag.InNodes)
			ctx.Send(cluster.Coordinator, &wire.EqSystem{
				Frag:      uint16(s.frag.ID),
				Eqs:       eqs,
				FalseVars: s.eng.Drain(),
			})
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
	case *wire.Values:
		// Round 2: instantiated virtual-variable values (listed = false).
		s.eng.ApplyFalsifications(m.False)
		s.eng.Drain() // deaths of our own in-node are already known upstream
	}
}

// solver is the coordinator's Boolean equation system (§5.2 step 2):
// greatest-fixpoint propagation with group counters, the same discipline
// as the per-site engine. For tree fragmentations the system is acyclic
// and each variable is processed once, giving the O(|Q||F|) solve time.
type solver struct {
	alive    map[wire.VarRef]bool // known variables; absent = true (settled)
	groups   map[wire.VarRef][][]wire.VarRef
	watchers map[wire.VarRef][]watch
	queue    []wire.VarRef
	grpCnt   map[wire.VarRef][]int
}

type watch struct {
	target wire.VarRef
	group  int
}

func newSolver() *solver {
	return &solver{
		alive:    make(map[wire.VarRef]bool),
		groups:   make(map[wire.VarRef][][]wire.VarRef),
		watchers: make(map[wire.VarRef][]watch),
		grpCnt:   make(map[wire.VarRef][]int),
	}
}

func (s *solver) addSystem(m *wire.EqSystem) {
	for _, eq := range m.Eqs {
		if _, ok := s.groups[eq.Target]; ok {
			continue
		}
		s.groups[eq.Target] = eq.Groups
		if _, known := s.alive[eq.Target]; !known {
			s.alive[eq.Target] = true
		}
	}
	for _, r := range m.FalseVars {
		s.markFalse(r)
	}
}

func (s *solver) markFalse(r wire.VarRef) {
	if a, ok := s.alive[r]; ok && !a {
		return
	}
	s.alive[r] = false
	s.queue = append(s.queue, r)
}

// solve wires the group counters and propagates falseness to fixpoint.
func (s *solver) solve() {
	for target, gs := range s.groups {
		if !s.alive[target] {
			continue
		}
		cnts := make([]int, len(gs))
		dead := false
		for gi, g := range gs {
			n := 0
			for _, r := range g {
				if a, known := s.alive[r]; known && !a {
					continue // already false
				}
				n++
				s.watchers[r] = append(s.watchers[r], watch{target, gi})
			}
			cnts[gi] = n
			if n == 0 {
				dead = true
			}
		}
		s.grpCnt[target] = cnts
		if dead {
			s.markFalse(target)
		}
	}
	for len(s.queue) > 0 {
		r := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, w := range s.watchers[r] {
			if !s.alive[w.target] {
				continue
			}
			c := s.grpCnt[w.target]
			c[w.group]--
			if c[w.group] == 0 {
				s.markFalse(w.target)
			}
		}
		delete(s.watchers, r)
	}
}

// falseFor reports the solved-false variables among the given nodes'
// variables — the round-2 payload for one site.
func (s *solver) falseFor(nodes []graph.NodeID, nq int) []wire.VarRef {
	var out []wire.VarRef
	for _, v := range nodes {
		for u := 0; u < nq; u++ {
			r := wire.VarRef{U: uint16(u), V: uint32(v)}
			if a, known := s.alive[r]; known && !a {
				out = append(out, r)
			}
		}
	}
	return out
}

// treeCoord collects round-1 equation systems and final matches.
type treeCoord struct {
	cluster.Collector
	systems []*wire.EqSystem
}

func (c *treeCoord) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	switch m := p.(type) {
	case *wire.EqSystem:
		c.systems = append(c.systems, m)
	case *wire.Matches:
		c.Collector.Recv(ctx, from, m)
	}
}

// Eval evaluates Q over a tree fragmentation resident on cluster c with
// dGPMt, as one session. Preconditions (Corollary 4): G is a tree (or
// forest) and every fragment is connected, i.e. has at most one in-node.
// Violations are reported as errors before any distributed work.
//
// A nonzero traceID makes every site record per-round spans, returned as
// a QueryTrace; traceID 0 disables tracing (nil trace) with wire traffic
// byte-identical to an untraced run.
func Eval(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	if _, ok := graph.IsTree(fr.CurrentGraph()); !ok {
		return nil, cluster.Stats{}, nil, fmt.Errorf("treesim: dGPMt requires a tree (or forest) data graph")
	}
	for _, f := range fr.Frags {
		if len(f.InNodes) > 1 {
			return nil, cluster.Stats{}, nil, fmt.Errorf("treesim: fragment %d has %d in-nodes; fragments must be connected subtrees", f.ID, len(f.InNodes))
		}
	}

	coord := &treeCoord{}
	spec := cluster.SessionSpec{Algo: Algo, Query: pattern.EncodeBinary(q), TraceID: traceID}
	stats, trace, err := c.Evaluate(ctx, spec, coord, func(sess *cluster.Session) error {
		// Round 1: partial evaluation, equations to the coordinator.
		if err := sess.Phase(ctx, &wire.Control{Op: dgpm.OpStart}); err != nil {
			return err
		}
		sess.AddRounds(1)

		// Solve the unified system at Sc.
		sv := newSolver()
		for _, m := range coord.systems {
			sv.addSystem(m)
		}
		sv.solve()

		// Round 2: per-site values of its virtual variables. The coordinator
		// organized the fragmentation, so it knows each site's virtual nodes;
		// only falsified values need shipping.
		for i, f := range fr.Frags {
			sess.Inject(i, &wire.Values{False: sv.falseFor(f.Virtual, q.NumNodes())})
		}
		if err := sess.WaitQuiesce(ctx); err != nil {
			return err
		}
		sess.AddRounds(1)

		// Assembly.
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

// Algo is the registered name of the dGPMt site.
const Algo = "dgpmt"

func init() {
	cluster.RegisterAlgorithm(Algo, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		return &treeSite{q: q, frag: frag}, nil
	})
}
