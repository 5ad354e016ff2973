package dgpm

// Equation extraction and installation — the machinery behind the push
// operation of §4.2. A push ships, to a parent site, the closed subsystem
// of still-unevaluated Boolean equations reachable from the in-node
// variables the parent watches, so the parent can evaluate them itself
// and bypass the extra message hop.

import (
	"cmp"
	"math"
	"slices"

	"dgs/internal/graph"
	"dgs/internal/pattern"
	"dgs/internal/wire"
)

// killVar falsifies any variable, routing to the dense path for visible
// nodes (so fragment counters fire) and to the ext path otherwise.
func (e *Engine) killVar(k varKey) {
	if vi, ok := e.vt.Find(k.v()); ok {
		e.killVis(k.u(), vi)
		return
	}
	e.killExt(k)
}

// depSet is the result of the assumption-dependence analysis.
type depSet struct {
	e   *Engine
	vis [][]bool // [u][vi]
	ext map[varKey]bool
}

func (d *depSet) has(k varKey) bool {
	if vi, ok := d.e.vt.Find(k.v()); ok {
		return d.vis[k.u()][vi]
	}
	return d.ext[k]
}

// assumptionDependent computes the set of alive variables that
// transitively reference at least one alive assumption variable. Every
// other alive variable is settled: its defining subsystem is closed under
// local knowledge, so the local greatest fixpoint equals the global one.
// The set is computed by reverse reachability from the assumptions —
// through the fragment adjacency for local variables and through equation
// watch lists for installed equations.
//
// The analysis is fragment-sized and reads nothing a caller passes in, so
// its result is memoised until the engine's state next changes (mut): the
// per-parent extractions of one push decision share a single closure.
func (e *Engine) assumptionDependent() *depSet {
	if e.dep != nil && e.depMut == e.mut {
		return e.dep
	}
	nq := e.q.NumNodes()
	d := &depSet{e: e, ext: make(map[varKey]bool)}
	d.vis = make([][]bool, nq)
	for u := range d.vis {
		d.vis[u] = make([]bool, len(e.vis))
	}
	var queue []varKey
	markVis := func(u pattern.QNode, vi int32) {
		if !d.vis[u][vi] {
			d.vis[u][vi] = true
			queue = append(queue, key(u, e.vis[vi]))
		}
	}
	mark := func(k varKey) {
		if vi, ok := e.vt.Find(k.v()); ok {
			markVis(k.u(), vi)
			return
		}
		if !d.ext[k] {
			d.ext[k] = true
			queue = append(queue, k)
		}
	}
	// Seeds: alive, non-constant assumption variables — virtual nodes
	// without an installed equation, plus pushed leaves.
	nvis := int32(len(e.vis))
	for u := 0; u < nq; u++ {
		if e.constTrue[u] {
			continue
		}
		for vi := e.nl; vi < nvis; vi++ {
			if !e.aliveAt(pattern.QNode(u), vi) {
				continue
			}
			if x, ok := e.ext[key(pattern.QNode(u), e.vis[vi])]; ok && x.hasEq {
				continue // derived, not an assumption
			}
			markVis(pattern.QNode(u), vi)
		}
	}
	for k, x := range e.ext {
		if _, visible := e.vt.Find(k.v()); visible {
			continue
		}
		if x.alive && !x.hasEq {
			mark(k)
		}
	}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		uc := k.u()
		if vi, ok := e.vt.Find(k.v()); ok {
			for _, ei := range e.eIn[uc] {
				up := e.qedges[ei].parent
				if e.constTrue[up] {
					continue
				}
				lo, hi := e.lo[up], e.hi[up]
				arow := e.row(up)
				for _, lp := range e.pred[vi] {
					if lp < lo {
						continue
					}
					if lp >= hi {
						break
					}
					if p := lp - lo; arow[p>>6]&(1<<(p&63)) != 0 {
						markVis(up, lp)
					}
				}
			}
		}
		for _, w := range e.eqWatch[k] {
			if e.isAlive(w.target) {
				mark(w.target)
			}
		}
	}
	e.dep, e.depMut = d, e.mut
	return d
}

// minEquationBytes is the wire footprint of an equation with no groups:
// no shipped equation is smaller.
var minEquationBytes = (&wire.Equation{}).EncodedSize()

// pushPlan is one parent's share of a push: the subsystem defining the
// in-node variables dest watches, and the leaves whose owners must
// reroute to dest.
type pushPlan struct {
	dest   int
	eqs    []wire.Equation
	leaves []graph.NodeID
}

// planPush returns the push of this engine's subsystem to every parent
// site — ExtractSubsystem of the in-nodes each watches, parents ascending,
// parents with nothing to learn omitted — or nil when the equations total
// more than budget bytes. The answer is exact and costs what it decides:
// three lower bounds on the total, of rising cost, are held against the
// budget and the first to exceed it ends the matter — one minimal
// equation (O(1)); the equations certain to ship, counted off the in-node
// adjacency with no dependence analysis (certainPushBytes); and the real
// extraction, parent by parent under the remaining budget, abandoned
// mid-parent before any sort.
func (e *Engine) planPush(budget int) []pushPlan {
	if e.ix == nil {
		// Refined under edge deletions: a pushed equation would be a
		// frozen snapshot that later deletions invalidate (why standing
		// sessions run with push off).
		return nil
	}
	if minEquationBytes > budget || e.certainPushBytes(budget) > budget {
		return nil
	}
	parents := make(map[int][]graph.NodeID)
	for _, li := range e.ix.In {
		for _, w := range e.ix.Watchers(li) {
			parents[int(w)] = append(parents[int(w)], e.vis[li])
		}
	}
	dests := make([]int, 0, len(parents))
	for d := range parents {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	var plans []pushPlan
	for _, d := range dests {
		eqs, leaves, size := e.extractWithin(parents[d], budget)
		if size > budget {
			return nil
		}
		budget -= size
		if len(eqs) > 0 {
			plans = append(plans, pushPlan{dest: d, eqs: eqs, leaves: leaves})
		}
	}
	return plans
}

// certainPushBytes is a lower bound, computed without the dependence
// analysis, on the bytes planPush would ship. An alive, non-constant
// in-node variable X(u,v) with an alive, non-constant, equation-less
// virtual successor one query edge away is one step from an assumption,
// hence certainly assumption-dependent: every site watching v is sent its
// equation, at minEquationBytes or more each. The walk stops as soon as
// the bound exceeds budget.
func (e *Engine) certainPushBytes(budget int) int {
	floor := 0
	for _, li := range e.ix.In {
		perVar := minEquationBytes * len(e.ix.Watchers(li))
		for u := range pattern.QNode(len(e.lo)) {
			if e.aliveAt(u, li) && e.seesAssumption(u, li) {
				if floor += perVar; floor > budget {
					return floor
				}
			}
		}
	}
	return floor
}

// seesAssumption reports whether local variable X(u, vis[li]) references
// an alive, non-constant assumption on a virtual node directly.
func (e *Engine) seesAssumption(u pattern.QNode, li int32) bool {
	for _, ei := range e.eOut[u] {
		uc := e.qedges[ei].child
		if e.constTrue[uc] {
			continue
		}
		for _, wi := range e.succ[li] {
			if wi < e.nl || !e.aliveAt(uc, wi) {
				continue
			}
			if x, ok := e.ext[key(uc, e.vis[wi])]; !ok || !x.hasEq {
				return true
			}
		}
	}
	return false
}

// ExtractSubsystem computes the equations defining every alive,
// assumption-dependent variable X(u,v) for the requested in-nodes, closed
// under local dependencies: referenced local (and previously installed
// equation) variables contribute their own equations; pure assumption
// variables stay as leaves. It returns the equations plus the leaf node
// IDs (whose owners must be asked to reroute falsifications).
//
// Alive variables with no transitive dependence on an assumption are
// settled true at the local fixpoint (their subsystem is closed, so local
// truth is global truth); they satisfy their OR groups like constants and
// are never shipped. On trees this prunes extraction down to the
// root→virtual paths, giving Corollary 4's O(|Q||F|) shipment.
//
// The engine is not changed. The dependence analysis behind the pruning
// is memoised in the engine, so extracting for many parents in a row pays
// for it once.
func (e *Engine) ExtractSubsystem(requested []graph.NodeID) ([]wire.Equation, []graph.NodeID) {
	eqs, leaves, _ := e.extractWithin(requested, math.MaxInt)
	return eqs, leaves
}

// extractWithin is ExtractSubsystem under a byte budget. size is the
// summed EncodedSize of the equations; the moment it exceeds budget the
// extraction is abandoned — nothing sorted, no leaves gathered — and only
// size (> budget) is returned.
func (e *Engine) extractWithin(requested []graph.NodeID, budget int) (eqs []wire.Equation, leaves []graph.NodeID, size int) {
	dep := e.assumptionDependent()
	visited := make(map[varKey]bool)
	leafNodes := make(map[graph.NodeID]bool)
	var stack []varKey

	push := func(k varKey) {
		if visited[k] {
			return
		}
		visited[k] = true
		stack = append(stack, k)
	}

	for _, v := range requested {
		for u := 0; u < e.q.NumNodes(); u++ {
			k := key(pattern.QNode(u), v)
			if e.isAlive(k) && !e.isConst(k) && dep.has(k) {
				push(k)
			}
		}
	}

	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		groups, isLeaf := e.groupsOf(k)
		if isLeaf {
			leafNodes[k.v()] = true
			continue
		}
		eq := wire.Equation{Target: k.ref()}
		for _, g := range groups {
			refs := make([]wire.VarRef, 0, len(g))
			satisfied := false
			for _, rk := range g {
				if !dep.has(rk) {
					// Settled-true reference satisfies the OR group.
					satisfied = true
					break
				}
				refs = append(refs, rk.ref())
			}
			if satisfied {
				continue
			}
			for _, rk := range g {
				push(rk)
			}
			eq.Groups = append(eq.Groups, refs)
		}
		if size += eq.EncodedSize(); size > budget {
			return nil, nil, size
		}
		eqs = append(eqs, eq)
	}
	leaves = make([]graph.NodeID, 0, len(leafNodes))
	for v := range leafNodes {
		leaves = append(leaves, v)
	}
	slices.Sort(leaves)
	// Deterministic order helps tests and keeps message bytes stable.
	slices.SortFunc(eqs, func(a, b wire.Equation) int { return compareRefs(a.Target, b.Target) })
	return eqs, leaves, size
}

// compareRefs orders variables by data node, then query node.
func compareRefs(a, b wire.VarRef) int {
	if a.V != b.V {
		return cmp.Compare(a.V, b.V)
	}
	return cmp.Compare(a.U, b.U)
}

// groupsOf returns the current unsatisfied OR groups of an alive
// variable, or isLeaf=true when k is a pure assumption. Dead references
// are pruned; groups containing a constant-true reference are dropped as
// satisfied.
func (e *Engine) groupsOf(k varKey) (groups [][]varKey, isLeaf bool) {
	vi, visible := e.vt.Find(k.v())
	if visible && vi < e.nl {
		// Local variable: groups come from the fragment adjacency.
		for _, ei := range e.eOut[k.u()] {
			uc := e.qedges[ei].child
			if e.constTrue[uc] {
				// Any alive successor is a constant-true witness; the var
				// is alive, so its counter is positive: group satisfied.
				continue
			}
			var g []varKey
			for _, wi := range e.succ[vi] {
				if e.aliveAt(uc, wi) {
					g = append(g, key(uc, e.vis[wi]))
				}
			}
			groups = append(groups, g)
		}
		return groups, false
	}
	if x, ok := e.ext[k]; ok && x.hasEq {
		// Prune references that died since installation: a dead reference
		// contributes false to its OR and must not leak into a shipped
		// subsystem (the receiver may have no way to learn of its death).
		for _, g := range x.groups {
			var live []varKey
			for _, rk := range g {
				if e.isAlive(rk) {
					live = append(live, rk)
				}
			}
			groups = append(groups, live)
		}
		return groups, false
	}
	return nil, true
}

// InstallEquations adds a pushed subsystem to the engine. Targets are
// created (or upgraded from assumptions) as equation variables; already
// falsified targets stay dead. References resolve against the engine's
// current knowledge: dead references are pruned, constant-true references
// satisfy their group. Installation is two-phase (create all targets,
// then wire references) so mutually recursive equations — cross-fragment
// cycles — install correctly.
func (e *Engine) InstallEquations(eqs []wire.Equation) {
	e.mut++
	// Phase 1: admit targets.
	installed := make(map[varKey]bool, len(eqs))
	for _, eq := range eqs {
		k := refKey(eq.Target)
		if vi, ok := e.vt.Find(k.v()); ok && vi < e.nl {
			// A pushed equation never targets our own node; if a routing
			// anomaly delivers one, our local derivation is authoritative.
			continue
		}
		if !e.isAlive(k) {
			continue // already resolved
		}
		x, ok := e.ext[k]
		if !ok {
			x = &extVar{alive: true}
			e.ext[k] = x
		}
		if x.hasEq {
			continue // duplicate push
		}
		installed[k] = true
	}
	// Phase 2: wire groups.
	e.lend()
	for _, eq := range eqs {
		k := refKey(eq.Target)
		if !installed[k] {
			continue
		}
		x := e.ext[k]
		x.hasEq = true
		dead := false
		for _, g := range eq.Groups {
			var refs []varKey
			satisfied := false
			for _, r := range g {
				rk := refKey(r)
				if e.isConst(rk) {
					satisfied = true
					break
				}
				if !e.isAlive(rk) {
					continue
				}
				refs = append(refs, rk)
			}
			if satisfied {
				continue
			}
			if len(refs) == 0 {
				dead = true
				break
			}
			gi := int32(len(x.groups))
			x.groups = append(x.groups, refs)
			x.groupCnt = append(x.groupCnt, int32(len(refs)))
			for _, rk := range refs {
				e.eqWatch[rk] = append(e.eqWatch[rk], eqWatcher{target: k, group: gi})
			}
		}
		if dead {
			e.killVar(k)
		}
	}
	e.propagate()
	e.Evals++
}
