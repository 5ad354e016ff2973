// Package dgpm implements the paper's core contribution (§4): the
// partition-bounded distributed graph simulation algorithm dGPM, its
// unoptimized variant dGPMNOpt, and the two optimization strategies of
// §4.2 (incremental local evaluation and the push operation).
//
// Each site runs an Engine over its fragment. The engine maintains the
// Boolean variables X(u,v) of §4.1 with counter-based propagation:
//
//	X(u,v) = ∧ over query children u' of u ( ∨ over fragment successors
//	          v' of v with matching label  X(u',v') )
//
// Variables of virtual nodes are *assumptions*: optimistically true and
// frozen locally — only a falsification shipped by their owner site kills
// them ("it always assumes the unevaluated virtual nodes as match
// candidates", §4.1). Truth values are monotone (true→false once), which
// is what bounds data shipment by O(|Ef||Vq|).
//
// The counter representation makes re-evaluation after a message
// inherently incremental: processing a falsification touches exactly the
// affected cone (the paper's O(|AFF|) bound for incremental lEval).
//
// Hot state is flat arrays sized by candidates, not by the fragment's
// product with the pattern. Fragment-visible nodes are indexed 0..nVis-1
// in the fragment index's label-major numbering (locals grouped by label,
// then virtuals); alive flags are one dense byte row per query node over
// that numbering. The local candidates of query node u are one range
// [lo[u], hi[u]), and the successor counters of a query edge (u,u') exist
// only for them, addressed by li − lo[u]. Pred rows are ascending, so
// propagation walks only the [lo[u], hi[u]) block of a row. Maps appear
// only on cold paths (pushed equations, message boundaries).
//
// Counter invariant: the counter of an ALIVE local variable X(u,v) on
// edge (u,u') is exactly the number of v's alive successors for u', and
// is positive. A dead variable's counters are stale — propagation skips
// dead predecessors, and never reaches label-inconsistent ones, before
// touching a counter — and nothing reads them: every counter read is
// behind an alive test.
package dgpm

import (
	"fmt"
	"sync"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/wire"
)

// varKey packs a variable X(u,v) into one comparable word (v is the
// global node ID).
type varKey uint64

func key(u pattern.QNode, v graph.NodeID) varKey {
	return varKey(u)<<32 | varKey(v)
}

func (k varKey) u() pattern.QNode { return pattern.QNode(k >> 32) }
func (k varKey) v() graph.NodeID  { return graph.NodeID(k & 0xffffffff) }

func (k varKey) ref() wire.VarRef { return wire.VarRef{U: uint16(k.u()), V: uint32(k.v())} }

func refKey(r wire.VarRef) varKey { return key(pattern.QNode(r.U), graph.NodeID(r.V)) }

// extVar is a variable for a node outside the fragment's view: either a
// pure assumption (a pushed equation's leaf) or an equation variable
// installed by a push. Virtual-node assumptions are NOT stored here —
// they live in the dense alive arrays.
type extVar struct {
	alive bool
	hasEq bool
	// groups holds the references of each unsatisfied OR group;
	// groupCnt counts the still-alive references per group.
	groups   [][]varKey
	groupCnt []int32
}

type qEdge struct {
	parent, child pattern.QNode
}

// Engine is the per-site evaluation state.
type Engine struct {
	q    *pattern.Pattern
	frag *partition.Fragment

	qedges []qEdge
	eOut   [][]int32 // query node -> out edge indices
	eIn    [][]int32 // query node -> in edge indices (by child)
	// constTrue[u] marks leaf query nodes: X(u,v) with matching label is
	// constant true.
	constTrue []bool

	// Dense node universe, borrowed from the fragment's cached topology
	// index: vis[0:nl] are local nodes, vis[nl:] virtual.
	vis    []graph.NodeID
	visIdx map[graph.NodeID]int32
	nl     int32 // number of locals

	// succ[li] lists vis indices of local node li's successors.
	succ [][]int32
	// pred[vi] lists, ascending, the local indices with an edge to vis
	// node vi.
	pred [][]int32
	// ix is the index succ/pred (and the watcher rows) are borrowed from,
	// read-only. The first edge deletion deep-copies succ/pred into
	// private rows and drops ix: the engine then no longer mirrors a
	// fragment version, and does not keep that index alive.
	ix *partition.Index

	// alive[u][vi] — dense variable state for visible nodes.
	alive [][]bool
	// The local candidates of u are the label range [lo[u], hi[u]);
	// labels[vi] is vi's label.
	lo, hi []int32
	labels []graph.Label
	// cnt[e=(u,u')][li−lo[u]] — alive-successor counter of X(u, vis[li]),
	// one cell per local candidate of u; exact while that variable is
	// alive.
	cnt [][]int32
	// wasAlive is ApplyEdgeDeletions' per-query-edge scratch.
	wasAlive []bool

	// ext variables (pushed equations and their leaves), keyed by (u,v).
	ext map[varKey]*extVar

	// eqWatch maps a variable to the equation groups referencing it.
	eqWatch map[varKey][]eqWatcher

	// isIn[li] marks local in-nodes.
	isIn []bool

	// kill queue: packed (u, vi) pairs pending propagation.
	queue []visVar
	// extQueue: pending ext kills.
	extQueue []varKey

	// out accumulates in-node variables falsified since the last Drain,
	// by local index, so the site routes them without a lookup.
	out []visVar

	// unevalIn / unevalVirt track |Fi.I'| and |Fi.O'| of the benefit
	// function incrementally (decremented on kills).
	unevalIn   int
	unevalVirt int

	// Evals counts evaluation passes (initial + per incoming batch),
	// the "rounds of (incremental) partial evaluation" of §5.1.
	Evals int

	// mut counts the state changes the dependence analysis reads (kills,
	// installed equations, unlinked edges); dep is assumptionDependent's
	// result as of depMut, shared by every extraction until mut moves.
	mut, depMut uint64
	dep         *depSet
}

type visVar struct {
	u  pattern.QNode
	vi int32
}

type eqWatcher struct {
	target varKey
	group  int32
}

// NewEngine builds the initial state and runs the first partial
// evaluation (procedure lEval of Fig. 4, lines 1–9): label-consistent
// variables are created, counters initialized, and locally-refutable
// variables falsified under the optimistic virtual-node assumption.
// It is NewEnginePlanned without a plan: declaration order.
func NewEngine(q *pattern.Pattern, frag *partition.Fragment) *Engine {
	return NewEnginePlanned(q, frag, nil)
}

// NewEnginePlanned is NewEngine under an evaluation plan. The plan is
// advisory — the counter fixpoint is confluent, so the relation, the
// shipped falsification set, and the termination certificate are
// independent of evaluation order — and decides only two orders:
//
//   - per-node edge lists follow the plan's ascending-selectivity
//     order, so exhaustion checks hit the emptiest counters first;
//   - the seed scan visits query nodes rarest label first, so the
//     cheapest falsifications propagate — and ship — earliest.
//
// A nil (or ill-fitting) plan is the identity order: nodes 0..|Vq|−1,
// edges in declaration index order.
//
// Construction is the same either way, and touches candidates only:
// §4.1's initial lEval is defined over label-consistent pairs, and
// everything it needs about the fragment is query-independent and comes
// from the fragment's cached Index, built (or patched from the last one)
// once per fragment version and shared by every engine — the vis
// numbering and adjacency rows, the per-label candidate ranges that
// drive the alive rows, benefit tallies and seed scan, and the per-label
// successor degrees the counters are gathered from (one byte load per
// local candidate per query edge; a saturated cell is recounted from its
// Succ row). Exact, because initial
// alive state is label consistency. No adjacency entry is visited until
// the fixpoint itself walks the predecessors of a falsified variable.
//
// A dGPM site usually does not call it: it restores the engine from the
// state an earlier build filed on the same index (prepare), and builds —
// here — only on a miss.
func NewEnginePlanned(q *pattern.Pattern, frag *partition.Fragment, pl *plan.Plan) *Engine {
	return build(q, frag, frag.Index(), pl)
}

// build is NewEnginePlanned on ix, which must be an index of frag.
func build(q *pattern.Pattern, frag *partition.Fragment, ix *partition.Index, pl *plan.Plan) *Engine {
	engineBuilds.Add(1)
	nq := q.NumNodes()
	nvis := len(ix.Vis)
	e := &Engine{
		q:       q,
		frag:    frag,
		ext:     make(map[varKey]*extVar),
		eqWatch: make(map[varKey][]eqWatcher),
	}
	e.constTrue = make([]bool, nq)
	for u := 0; u < nq; u++ {
		for _, uc := range q.Succ(pattern.QNode(u)) {
			e.qedges = append(e.qedges, qEdge{pattern.QNode(u), uc})
		}
		e.constTrue[u] = len(q.Succ(pattern.QNode(u))) == 0
	}
	if pl == nil || pl.Fits(q) != nil {
		pl = &plan.Plan{Nodes: identityOrder(nq), Edges: identityOrder(len(e.qedges))}
	}
	// Thread the per-node edge lists in plan order. Edge indices — and
	// therefore counter rows and wire encodings — are declaration order
	// regardless; only the iteration order over a node's edges follows
	// the plan.
	e.eOut = make([][]int32, nq)
	e.eIn = make([][]int32, nq)
	for _, ei := range pl.Edges {
		qe := e.qedges[ei]
		e.eOut[qe.parent] = append(e.eOut[qe.parent], int32(ei))
		e.eIn[qe.child] = append(e.eIn[qe.child], int32(ei))
	}

	// Borrow the fragment's topology index and drive every scan off its
	// label ranges: a query node's local candidates are one contiguous
	// range of the label-major numbering, its virtual ones a short list.
	e.borrow(ix)

	// Alive state is label consistency; the benefit function's tallies
	// (alive, non-constant variables on in-nodes and virtual nodes) are
	// the index's per-label counts.
	e.alive = make([][]bool, nq)
	e.lo, e.hi = make([]int32, nq), make([]int32, nq)
	rows := make([]bool, nq*nvis)
	for u := 0; u < nq; u++ {
		row := rows[u*nvis : (u+1)*nvis : (u+1)*nvis]
		ql := q.Label(pattern.QNode(u))
		lo, hi := ix.Locals(ql)
		for i := lo; i < hi; i++ {
			row[i] = true
		}
		virt := ix.Virt[ql]
		for _, i := range virt {
			row[i] = true
		}
		e.alive[u] = row
		e.lo[u], e.hi[u] = lo, hi
		if !e.constTrue[u] {
			e.unevalIn += ix.InOf[ql]
			e.unevalVirt += len(virt)
		}
	}

	// Counters: cnt[e=(u,u')][li−lo[u]] = #successors of local candidate
	// li labelled label(u'), which are its alive successors for u'.
	ncells := int32(0)
	for _, qe := range e.qedges {
		ncells += e.hi[qe.parent] - e.lo[qe.parent]
	}
	cells := make([]int32, ncells)
	e.cnt = make([][]int32, len(e.qedges))
	for ei, qe := range e.qedges {
		lo, hi := e.lo[qe.parent], e.hi[qe.parent]
		n := hi - lo
		row := cells[:n:n]
		cells = cells[n:]
		e.cnt[ei] = row
		cl := q.Label(qe.child)
		deg := ix.OutDeg[cl]
		if deg == nil {
			continue // no local node has a successor labelled cl
		}
		for p, d := range deg[lo:hi] {
			c := int32(d)
			if c == partition.OutDegSat {
				c = 0
				for _, wi := range e.succ[lo+int32(p)] {
					if e.labels[wi] == cl {
						c++
					}
				}
			}
			row[p] = c
		}
	}

	// Seed: alive local vars with an exhausted out-edge counter die. The
	// scan runs in plan node order over each node's local candidates (and
	// each node's edges in plan edge order), so under a greedy plan the
	// cheapest falsifications enter the queue — and the first Drain —
	// earliest. The seed phase's kill queue grows to the fragment's share
	// of the falsified relation and is empty again when propagate
	// returns, so it is borrowed from a pool for the build; later
	// incremental kills grow a small one of the engine's own. Nothing
	// propagates during the scan, so every candidate is still alive when
	// it is reached.
	qp := queuePool.Get().(*[]visVar)
	e.queue = (*qp)[:0]
	for _, pu := range pl.Nodes {
		u := pattern.QNode(pu)
		if e.constTrue[u] {
			continue
		}
		var buf [8][]int32
		rows := buf[:0] // u's counter rows, in plan edge order
		for _, ei := range e.eOut[u] {
			rows = append(rows, e.cnt[ei])
		}
		lo := e.lo[u]
		for p := range e.hi[u] - lo {
			for _, row := range rows {
				if row[p] == 0 {
					e.killVis(u, lo+p)
					break
				}
			}
		}
	}
	e.propagate()
	*qp, e.queue = e.queue[:0], nil
	queuePool.Put(qp)
	e.Evals++
	return e
}

// queuePool recycles the seed phase's kill queue across engine builds.
var queuePool = sync.Pool{New: func() any { return new([]visVar) }}

// borrow points the engine's numbering and adjacency at ix, read-only:
// the first edge deletion copies succ/pred.
func (e *Engine) borrow(ix *partition.Index) {
	e.ix = ix
	e.nl = ix.NL
	e.vis = ix.Vis
	e.visIdx = ix.VisIdx
	e.isIn = ix.IsIn
	e.succ = ix.Succ
	e.pred = ix.Pred
	e.labels = ix.Labels
}

// identityOrder lists 0..n−1: the plan-less node and edge order.
func identityOrder(n int) []uint16 {
	xs := make([]uint16, n)
	for i := range xs {
		xs[i] = uint16(i)
	}
	return xs
}

// inQuery reports whether k's query node exists: a forged reference may
// name one past the pattern.
func (e *Engine) inQuery(k varKey) bool {
	return int(k.u()) < len(e.constTrue)
}

// isAlive reports the current status of any variable the engine can see.
// Unknown external variables default to alive; a variable of no query
// node does not exist, and is dead.
func (e *Engine) isAlive(k varKey) bool {
	if !e.inQuery(k) {
		return false
	}
	if vi, ok := e.visIdx[k.v()]; ok {
		return e.alive[k.u()][vi]
	}
	if x, ok := e.ext[k]; ok {
		return x.alive
	}
	return true
}

// isConst reports whether k is constant true: leaf query node with a
// matching label on a visible node.
func (e *Engine) isConst(k varKey) bool {
	if !e.inQuery(k) || !e.constTrue[k.u()] {
		return false
	}
	if vi, ok := e.visIdx[k.v()]; ok {
		// Initial alive == label consistency; leaves are never killed.
		return e.alive[k.u()][vi]
	}
	return false
}

// killVis falsifies a visible variable. Local in-node deaths are recorded
// for shipping.
func (e *Engine) killVis(u pattern.QNode, vi int32) {
	if !e.alive[u][vi] {
		return
	}
	e.alive[u][vi] = false
	e.mut++
	if vi < e.nl {
		if e.isIn[vi] {
			e.out = append(e.out, visVar{u, vi})
			if !e.constTrue[u] {
				e.unevalIn--
			}
		}
	} else if !e.constTrue[u] {
		e.unevalVirt--
	}
	e.queue = append(e.queue, visVar{u, vi})
}

func (e *Engine) killExt(k varKey) {
	x, ok := e.ext[k]
	if !ok {
		x = &extVar{alive: true}
		e.ext[k] = x
	}
	if !x.alive {
		return
	}
	x.alive = false
	e.mut++
	x.groups, x.groupCnt = nil, nil
	e.extQueue = append(e.extQueue, k)
}

// propagate drains the kill queues: each death decrements the successor
// counters of its alive local predecessors (the fragment-level HHK step;
// a dead predecessor has no counter worth keeping, a label-inconsistent
// one none at all) and the group counters of watching equations. Pred
// rows are ascending, so the predecessors labelled label(u) are the
// [lo[u], hi[u]) block of a row: the walk skips to it and stops after it.
func (e *Engine) propagate() {
	for len(e.queue) > 0 || len(e.extQueue) > 0 {
		if n := len(e.queue); n > 0 {
			kv := e.queue[n-1]
			e.queue = e.queue[:n-1]
			// Local predecessors lose a witness for each edge into kv.u.
			for _, ei := range e.eIn[kv.u] {
				up := e.qedges[ei].parent
				lo, hi := e.lo[up], e.hi[up]
				cnt := e.cnt[ei]
				arow := e.alive[up]
				for _, lp := range e.pred[kv.vi] {
					if lp < lo {
						continue
					}
					if lp >= hi {
						break
					}
					if !arow[lp] {
						continue
					}
					p := lp - lo
					cnt[p]--
					if cnt[p] == 0 {
						e.killVis(up, lp)
					}
				}
			}
			if len(e.eqWatch) > 0 {
				e.fireWatchers(key(kv.u, e.vis[kv.vi]))
			}
			continue
		}
		n := len(e.extQueue)
		k := e.extQueue[n-1]
		e.extQueue = e.extQueue[:n-1]
		e.fireWatchers(k)
	}
}

// fireWatchers notifies installed equations that k died.
func (e *Engine) fireWatchers(k varKey) {
	ws, ok := e.eqWatch[k]
	if !ok {
		return
	}
	delete(e.eqWatch, k)
	for _, w := range ws {
		x, ok := e.ext[w.target]
		if !ok || !e.isAlive(w.target) || int(w.group) >= len(x.groupCnt) {
			continue
		}
		x.groupCnt[w.group]--
		if x.groupCnt[w.group] == 0 {
			e.killVar(w.target)
		}
	}
}

// ApplyFalsifications processes a received falsification batch
// (incremental lEval, §4.2): each listed variable is killed and the
// effect propagated. Unknown or already-dead variables are ignored —
// falsifications are idempotent — and so are references to a query node
// the pattern does not have.
func (e *Engine) ApplyFalsifications(pairs []wire.VarRef) {
	for _, r := range pairs {
		k := refKey(r)
		if !e.inQuery(k) {
			continue
		}
		if vi, ok := e.visIdx[k.v()]; ok {
			if e.alive[k.u()][vi] {
				e.killVis(k.u(), vi)
			}
			continue
		}
		e.killExt(k)
	}
	e.propagate()
	e.Evals++
}

// ApplyEdgeDeletions removes the listed fragment edges (source local,
// target visible) from the engine's adjacency and incrementally refines
// the relation — the distributed counterpart of the deletion case of
// [13]: simulation shrinks monotonically under deletions, so the counter
// state absorbs each removal in O(|AFF|). Falsified in-node variables
// accumulate for Drain as usual. Edges unknown to the engine are
// ignored (the site layer validates existence upstream).
func (e *Engine) ApplyEdgeDeletions(dels [][2]graph.NodeID) {
	if e.ix != nil && len(dels) > 0 {
		// The adjacency rows are borrowed from the fragment's shared
		// topology index; take private copies before the first unlink.
		// One O(|Ei|) copy per standing session, amortized over its
		// lifetime — per-deletion refinement stays O(|AFF|).
		e.succ = copyRows(e.succ)
		e.pred = copyRows(e.pred)
		e.ix = nil
		e.wasAlive = make([]bool, len(e.qedges))
	}
	for _, d := range dels {
		v, w := d[0], d[1]
		li, ok := e.visIdx[v]
		if !ok || li >= e.nl {
			continue
		}
		wi, ok := e.visIdx[w]
		if !ok {
			continue
		}
		// Unlink first: kills propagated below must not walk the deleted
		// edge, or counters would be decremented for a witness already
		// discounted here.
		if !unlink(&e.succ[li], wi) {
			continue // edge not present (already deleted)
		}
		unlink(&e.pred[wi], li)
		e.mut++
		// v loses witness w for every query edge whose child w matches.
		// Snapshot w's liveness first: a kill fired mid-loop (w can be v
		// itself via a self-loop) would otherwise lose this edge's
		// decrement for the remaining query edges.
		for ei := range e.qedges {
			e.wasAlive[ei] = e.alive[e.qedges[ei].child][wi]
		}
		for ei, qe := range e.qedges {
			if !e.wasAlive[ei] || !e.alive[qe.parent][li] {
				continue
			}
			p := li - e.lo[qe.parent]
			e.cnt[ei][p]--
			if e.cnt[ei][p] == 0 {
				e.killVis(qe.parent, li)
			}
		}
		// Drain the queue per deletion so the next deletion starts from a
		// settled counter state (the invariant the decrement test needs).
		e.propagate()
	}
	e.Evals++
}

// copyRows deep-copies a dense adjacency table so unlink can edit rows
// in place without touching the shared original. The copies share one
// backing array, each row capped at its length: unlink only shrinks a
// row, so no row can grow into its neighbour.
func copyRows(rows [][]int32) [][]int32 {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	flat := make([]int32, 0, n)
	out := make([][]int32, len(rows))
	for i, r := range rows {
		if len(r) == 0 {
			continue
		}
		flat = append(flat, r...)
		out[i] = flat[len(flat)-len(r) : len(flat) : len(flat)]
	}
	return out
}

// unlink removes one occurrence of x from *s, reporting whether it was
// present. Order is preserved (succ rows feed no further sorting, but
// deterministic iteration keeps message order reproducible).
func unlink(s *[]int32, x int32) bool {
	row := *s
	for i, y := range row {
		if y == x {
			*s = append(row[:i], row[i+1:]...)
			return true
		}
	}
	return false
}

// Drain returns and clears the in-node variables falsified since the last
// call. The site layer routes them to watcher sites (procedure lMsg).
func (e *Engine) Drain() []wire.VarRef {
	out := e.drain()
	if len(out) == 0 {
		return nil
	}
	refs := make([]wire.VarRef, len(out))
	for i, x := range out {
		refs[i] = e.ref(x)
	}
	return refs
}

// drain is Drain in the engine's own numbering. The returned slice is the
// engine's buffer: it is valid until the engine next changes.
func (e *Engine) drain() []visVar {
	out := e.out
	e.out = out[:0]
	return out
}

// ref is the wire reference of a visible variable.
func (e *Engine) ref(x visVar) wire.VarRef {
	return wire.VarRef{U: uint16(x.u), V: uint32(e.vis[x.vi])}
}

// AliveLocalVar reports the status of a local variable; it panics if v is
// not local (programming error in the caller).
func (e *Engine) AliveLocalVar(u pattern.QNode, v graph.NodeID) bool {
	vi, ok := e.visIdx[v]
	if !ok || vi >= e.nl {
		panic(fmt.Sprintf("dgpm: node %d is not local to fragment %d", v, e.frag.ID))
	}
	return e.alive[u][vi]
}

// LocalMatches lists all alive local variables — the site's partial
// answer Q(Fi) shipped to the coordinator in phase 3.
func (e *Engine) LocalMatches() []wire.VarRef {
	n := 0
	for u, row := range e.alive {
		for _, alive := range row[e.lo[u]:e.hi[u]] {
			if alive {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]wire.VarRef, 0, n)
	for u, row := range e.alive {
		for li := e.lo[u]; li < e.hi[u]; li++ {
			if row[li] {
				out = append(out, wire.VarRef{U: uint16(u), V: uint32(e.vis[li])})
			}
		}
	}
	return out
}

// DeadLocalVars lists the falsified non-constant variables of a local
// node — used to backfill a rerouted watcher that joined after those
// variables died.
func (e *Engine) DeadLocalVars(v graph.NodeID) []wire.VarRef {
	vi, ok := e.visIdx[v]
	if !ok || vi >= e.nl {
		return nil
	}
	var out []wire.VarRef
	lbl := e.labels[vi]
	for u := 0; u < e.q.NumNodes(); u++ {
		if e.q.Label(pattern.QNode(u)) == lbl && !e.alive[u][vi] {
			out = append(out, wire.VarRef{U: uint16(u), V: uint32(v)})
		}
	}
	return out
}

// UnevaluatedCounts reports |Fi.I'| and |Fi.O'| of the benefit function
// B(Si) (§4.2): in-node and virtual-node variables whose truth value is
// still unknown (alive and not constant). Maintained incrementally.
func (e *Engine) UnevaluatedCounts() (inVars, virtVars int) {
	return e.unevalIn, e.unevalVirt
}
