// Package dgpm implements the paper's core contribution (§4): the
// partition-bounded distributed graph simulation algorithm dGPM, its
// unoptimized variant dGPMNOpt, and the two optimization strategies of
// §4.2 (incremental local evaluation and the push operation). Its site
// is also the site of dGPMd and dGPMt (§5), whose coordinators are
// internal/dagsim and internal/treesim: the three share the start
// signal and the prepared engine, and differ in how falsifications are
// released.
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
// then virtuals). The local candidates of query node u are one range
// [lo[u], hi[u]), and u's alive state is one bitset over that range
// followed by the virtual range [nl, nVis); every bitset lives in one
// flat word slice per engine. The successor counters of a query edge
// (u,u') exist only for u's local candidates, at a slot derived from the
// position li − lo[u] (slot). Pred rows are ascending, so propagation
// walks only the [lo[u], hi[u]) block of a row. An inbound reference
// resolves through the index's open-addressed node table, so maps appear
// only on the cold path of pushed equations.
//
// Counter invariant: the counter of an ALIVE local variable X(u,v) on
// edge (u,u') is exactly the number of v's alive successors for u', and
// is positive. A dead variable's counters are stale — propagation skips
// dead predecessors, and never reaches label-inconsistent ones, before
// touching a counter — and nothing reads them: every counter read is
// behind an alive test. An engine restored from a snapshot has counters
// for the snapshot's alive variables only (prepared.go).
package dgpm

import (
	"fmt"
	"math/bits"
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
	// index: vis[0:nl] are local nodes, vis[nl:] virtual. vt resolves a
	// node ID — an inbound reference's V — to its index in vis without a
	// map: the index's open-addressed table, held by value so that the
	// engine keeps the table alive and not the index (ix).
	vis []graph.NodeID
	vt  partition.VisTable
	nl  int32 // number of locals

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

	// The local candidates of u are the label range [lo[u], hi[u]);
	// labels[vi] is vi's label.
	lo, hi []int32
	labels []graph.Label
	// alive holds one bitset per query node, u's in the words
	// alive[off[u]:off[u+1]]: bit p < hi[u]−lo[u] is X(u, vis[lo[u]+p]),
	// bit hi[u]−lo[u]+k is X(u, vis[nl+k]). A virtual node of another
	// label has a bit that is never set.
	alive []uint64
	off   []int32
	// cells holds the alive-successor counters, edge ei=(u,u')'s in
	// cells[cntOff[ei]:cntOff[ei+1]]: the counter of X(u, vis[li]) is at
	// slot(u, li−lo[u]) there, exact while that variable is alive.
	cells  []int32
	cntOff []int32
	// snapBits and rank are, for an engine restored from a snapshot, the
	// snapshot's alive bits (shared, read-only) and their per-word prefix
	// popcounts: a restored engine has counters only for the snapshot's
	// alive local candidates, in position order. Both are nil for a
	// build, whose slot is the position itself.
	snapBits []uint64
	rank     []int32
	// wasAlive is ApplyEdgeDeletions' per-query-edge scratch.
	wasAlive []bool

	// ext variables (pushed equations and their leaves), keyed by (u,v).
	ext map[varKey]*extVar

	// eqWatch maps a variable to the equation groups referencing it.
	eqWatch map[varKey][]eqWatcher

	// isIn[li] marks local in-nodes.
	isIn []bool

	// kill queue: packed (u, vi) pairs pending propagation, lent from
	// queuePool (qbox) to each path that kills (lend) and returned when
	// propagate has emptied it.
	queue []visVar
	qbox  *[]visVar
	// extQueue: pending ext kills.
	extQueue []varKey

	// out accumulates in-node variables falsified since the last Drain,
	// by local index, so the site routes them without a lookup. On a
	// restored engine it starts as the snapshot's filed seed kills
	// (outFiled), read-only and capped so that a kill appends to a copy.
	out      []visVar
	outFiled bool

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

	// snap is the snapshot this engine was filed as or restored from,
	// read-only; nil for an engine built without filing.
	snap *snapshot
}

type visVar struct {
	u  pattern.QNode
	vi int32
}

type eqWatcher struct {
	target varKey
	group  int32
}

// NewEnginePlanned builds the initial state and runs the first partial
// evaluation (procedure lEval of Fig. 4, lines 1–9): label-consistent
// variables are created, counters initialized, and locally-refutable
// variables falsified under the optimistic virtual-node assumption. pl
// is ignored: the counter fixpoint is confluent — its kill set is the
// complement of the unique maximum simulation, and every killed
// variable walks its predecessors once per in-edge in any order — so no
// plan can change the relation, the shipped falsification set or the
// work. The seed scan and propagation run in declaration order; the one
// order a build picks, which counter row of a candidate to check first,
// it derives from the fragment's own label counts.
//
// Construction touches candidates only:
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
	return build(q, frag, frag.Index())
}

// build is NewEnginePlanned on ix, which must be an index of frag.
func build(q *pattern.Pattern, frag *partition.Fragment, ix *partition.Index) *Engine {
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
	e.eOut = make([][]int32, nq)
	e.eIn = make([][]int32, nq)
	for u := 0; u < nq; u++ {
		for _, uc := range q.Succ(pattern.QNode(u)) {
			ei := int32(len(e.qedges))
			e.qedges = append(e.qedges, qEdge{pattern.QNode(u), uc})
			e.eOut[u] = append(e.eOut[u], ei)
			e.eIn[uc] = append(e.eIn[uc], ei)
		}
		e.constTrue[u] = len(q.Succ(pattern.QNode(u))) == 0
	}

	// Borrow the fragment's topology index and drive every scan off its
	// label ranges: a query node's local candidates are one contiguous
	// range of the label-major numbering, its virtual ones a short list.
	e.borrow(ix)

	// Alive state is label consistency; the benefit function's tallies
	// (alive, non-constant variables on in-nodes and virtual nodes) are
	// the index's per-label counts.
	nl := ix.NL
	e.lo, e.hi = make([]int32, nq), make([]int32, nq)
	e.off = make([]int32, nq+1)
	for u := range nq {
		lo, hi := ix.Locals(q.Label(pattern.QNode(u)))
		e.lo[u], e.hi[u] = lo, hi
		e.off[u+1] = e.off[u] + (hi-lo+int32(nvis)-nl+63)>>6
	}
	e.alive = make([]uint64, e.off[nq])
	for u := range nq {
		ql := q.Label(pattern.QNode(u))
		row, n := e.row(pattern.QNode(u)), e.hi[u]-e.lo[u]
		for k := range n >> 6 {
			row[k] = ^uint64(0)
		}
		if n&63 != 0 {
			row[n>>6] = 1<<(n&63) - 1
		}
		virt := ix.Virt[ql]
		for _, vi := range virt {
			b := n + vi - nl
			row[b>>6] |= 1 << (b & 63)
		}
		if !e.constTrue[u] {
			e.unevalIn += ix.InOf[ql]
			e.unevalVirt += len(virt)
		}
	}

	// Counters: the cell of local candidate li on edge e=(u,u') is the
	// number of li's successors labelled label(u'), which are its alive
	// successors for u'. A build has a cell for every local candidate,
	// at its position li − lo[u].
	e.cntOff = make([]int32, len(e.qedges)+1)
	for ei, qe := range e.qedges {
		e.cntOff[ei+1] = e.cntOff[ei] + e.hi[qe.parent] - e.lo[qe.parent]
	}
	e.cells = make([]int32, e.cntOff[len(e.qedges)])
	for ei, qe := range e.qedges {
		lo, hi := e.lo[qe.parent], e.hi[qe.parent]
		row := e.cnt(ei)
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
	// scan runs in declaration order over each node's local candidates;
	// nothing propagates during it, so every candidate is still alive when
	// it is reached, and neither the kill set nor the kill order depends
	// on how a candidate's counter rows are ordered. The scan stops at a
	// candidate's first exhausted counter, so it checks first the rows of
	// the children with the fewest candidates on this fragment (locals
	// plus virtuals, ties in declaration order): the counters likeliest
	// to be zero.
	e.lend()
	type seedRow struct {
		cnt   []int32
		cands int32 // the child's candidates on this fragment
	}
	for u := range nq {
		if e.constTrue[u] {
			continue
		}
		var buf [8]seedRow
		rows := buf[:0] // u's counter rows, fewest child candidates first
		for _, ei := range e.eOut[u] {
			uc := e.qedges[ei].child
			r := seedRow{e.cnt(int(ei)), e.hi[uc] - e.lo[uc] + int32(len(ix.Virt[q.Label(uc)]))}
			j := len(rows)
			rows = append(rows, r)
			for ; j > 0 && rows[j-1].cands > r.cands; j-- {
				rows[j] = rows[j-1]
			}
			rows[j] = r
		}
		lo, arow := e.lo[u], e.row(pattern.QNode(u))
		for p := range e.hi[u] - lo {
			for _, row := range rows {
				if row.cnt[p] == 0 {
					arow[p>>6] &^= 1 << (p & 63)
					e.killed(pattern.QNode(u), lo+p)
					break
				}
			}
		}
	}
	e.propagate()
	e.Evals++
	return e
}

// queuePool recycles kill queues across engines. Every path that kills
// borrows one (lend) and the propagate that empties it gives it back, so
// pooled queues absorb both a build's seed phase, which grows one to the
// fragment's share of the falsified relation, and every incremental
// evaluation after it, built engine or restored.
var queuePool = sync.Pool{New: func() any { return new([]visVar) }}

// row returns u's alive words.
func (e *Engine) row(u pattern.QNode) []uint64 {
	return e.alive[e.off[u]:e.off[u+1]]
}

// bit returns the position of X(u, vis[vi]) in u's alive bits; ok is
// false for a local node outside u's candidate range, whose variable
// does not exist.
func (e *Engine) bit(u pattern.QNode, vi int32) (b int32, ok bool) {
	lo, n := e.lo[u], e.hi[u]-e.lo[u]
	if vi >= e.nl {
		return n + vi - e.nl, true
	}
	return vi - lo, uint32(vi-lo) < uint32(n)
}

// aliveAt reports whether visible variable X(u, vis[vi]) is alive: the
// one reader of the alive bits outside the walks over a candidate range
// (the seed scan, propagate and the dependence analysis), which test the
// bits on the node's row directly.
func (e *Engine) aliveAt(u pattern.QNode, vi int32) bool {
	b, ok := e.bit(u, vi)
	return ok && e.alive[e.off[u]+b>>6]&(1<<(b&63)) != 0
}

// cnt returns edge ei's counter cells.
func (e *Engine) cnt(ei int) []int32 {
	return e.cells[e.cntOff[ei]:e.cntOff[ei+1]]
}

// slot is where, in each counter row of u's out-edges, the counter of
// alive local variable X(u, vis[lo[u]+p]) lives: p itself in a build; in
// a restored engine, the variable's rank among the snapshot's alive
// candidates of u, which include every variable alive since.
func (e *Engine) slot(u pattern.QNode, p int32) int32 {
	if e.rank == nil {
		return p
	}
	k := e.off[u] + p>>6
	return e.rank[k] + int32(bits.OnesCount64(e.snapBits[k]&(1<<(p&63)-1)))
}

// localWord returns word k of row with the bits past the n local
// candidates cleared.
func localWord(row []uint64, n, k int32) uint64 {
	w := row[k]
	if rest := n - k<<6; rest < 64 {
		w &= 1<<rest - 1
	}
	return w
}

// borrow points the engine's numbering and adjacency at ix, read-only:
// the first edge deletion copies succ/pred.
func (e *Engine) borrow(ix *partition.Index) {
	e.ix = ix
	e.nl = ix.NL
	e.vis = ix.Vis
	e.vt = ix.Table()
	e.isIn = ix.IsIn
	e.succ = ix.Succ
	e.pred = ix.Pred
	e.labels = ix.Labels
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
	if vi, ok := e.vt.Find(k.v()); ok {
		return e.aliveAt(k.u(), vi)
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
	if vi, ok := e.vt.Find(k.v()); ok {
		// Initial alive == label consistency; leaves are never killed.
		return e.aliveAt(k.u(), vi)
	}
	return false
}

// killVis falsifies a visible variable, if it is alive.
func (e *Engine) killVis(u pattern.QNode, vi int32) {
	b, ok := e.bit(u, vi)
	if !ok {
		return
	}
	w, m := &e.alive[e.off[u]+b>>6], uint64(1)<<(b&63)
	if *w&m != 0 {
		*w &^= m
		e.killed(u, vi)
	}
}

// killed records the death of X(u, vis[vi]), whose bit was just
// cleared, and queues it for propagation. Local in-node deaths are
// recorded for shipping.
func (e *Engine) killed(u pattern.QNode, vi int32) {
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

// lend gives the engine a pooled kill queue, unless it holds one, for a
// path that kills and then propagates: propagate returns it once empty.
func (e *Engine) lend() {
	if e.qbox == nil {
		e.qbox = queuePool.Get().(*[]visVar)
		e.queue = (*e.qbox)[:0]
	}
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
// The emptied kill queue goes back to its pool.
func (e *Engine) propagate() {
	for len(e.queue) > 0 || len(e.extQueue) > 0 {
		if n := len(e.queue); n > 0 {
			kv := e.queue[n-1]
			e.queue = e.queue[:n-1]
			// Local predecessors lose a witness for each edge into kv.u.
			for _, ei := range e.eIn[kv.u] {
				up := e.qedges[ei].parent
				lo, hi := e.lo[up], e.hi[up]
				cnt := e.cnt(int(ei))
				arow := e.row(up)
				for _, lp := range e.pred[kv.vi] {
					if lp < lo {
						continue
					}
					if lp >= hi {
						break
					}
					p := lp - lo
					w, m := &arow[p>>6], uint64(1)<<(p&63)
					if *w&m == 0 {
						continue
					}
					c := &cnt[e.slot(up, p)]
					if *c--; *c == 0 {
						*w &^= m
						e.killed(up, lp)
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
	if e.qbox != nil {
		*e.qbox = e.queue[:0]
		queuePool.Put(e.qbox)
		e.qbox, e.queue = nil, nil
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
	e.lend()
	for _, r := range pairs {
		k := refKey(r)
		if !e.inQuery(k) {
			continue
		}
		if vi, ok := e.vt.Find(k.v()); ok {
			e.killVis(k.u(), vi)
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
		li, ok := e.vt.Find(v)
		if !ok || li >= e.nl {
			continue
		}
		wi, ok := e.vt.Find(w)
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
		e.lend()
		// v loses witness w for every query edge whose child w matches.
		// Snapshot w's liveness first: a kill fired mid-loop (w can be v
		// itself via a self-loop) would otherwise lose this edge's
		// decrement for the remaining query edges.
		for ei := range e.qedges {
			e.wasAlive[ei] = e.aliveAt(e.qedges[ei].child, wi)
		}
		for ei, qe := range e.qedges {
			if !e.wasAlive[ei] || !e.aliveAt(qe.parent, li) {
				continue
			}
			c := &e.cnt(ei)[e.slot(qe.parent, li-e.lo[qe.parent])]
			if *c--; *c == 0 {
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
// engine's buffer, valid until the engine next changes, and read-only: it
// may be a snapshot's filed list, which every restore of the snapshot
// shares, and then the engine starts a fresh buffer.
func (e *Engine) drain() []visVar {
	out := e.out
	if e.outFiled {
		e.out, e.outFiled = nil, false
	} else {
		e.out = out[:0]
	}
	return out
}

// ref is the wire reference of a visible variable.
func (e *Engine) ref(x visVar) wire.VarRef {
	return wire.VarRef{U: uint16(x.u), V: uint32(e.vis[x.vi])}
}

// AliveLocalVar reports the status of a local variable; it panics if v is
// not local (programming error in the caller).
func (e *Engine) AliveLocalVar(u pattern.QNode, v graph.NodeID) bool {
	vi, ok := e.vt.Find(v)
	if !ok || vi >= e.nl {
		panic(fmt.Sprintf("dgpm: node %d is not local to fragment %d", v, e.frag.ID))
	}
	return e.aliveAt(u, vi)
}

// LocalMatches lists all alive local variables — the site's partial
// answer Q(Fi) shipped to the coordinator in phase 3 — query node by
// query node, each node's ascending in the label-major numbering: the set
// bits of each node's local candidates, in order.
func (e *Engine) LocalMatches() []wire.VarRef {
	nq := pattern.QNode(len(e.lo))
	n := 0
	for u := range nq {
		row, cands := e.row(u), e.hi[u]-e.lo[u]
		for k := int32(0); k<<6 < cands; k++ {
			n += bits.OnesCount64(localWord(row, cands, k))
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]wire.VarRef, 0, n)
	for u := range nq {
		row, lo, cands := e.row(u), e.lo[u], e.hi[u]-e.lo[u]
		for k := int32(0); k<<6 < cands; k++ {
			for w := localWord(row, cands, k); w != 0; w &= w - 1 {
				li := lo + k<<6 + int32(bits.TrailingZeros64(w))
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
	vi, ok := e.vt.Find(v)
	if !ok || vi >= e.nl {
		return nil
	}
	var out []wire.VarRef
	lbl := e.labels[vi]
	for u := 0; u < e.q.NumNodes(); u++ {
		if e.q.Label(pattern.QNode(u)) == lbl && !e.aliveAt(pattern.QNode(u), vi) {
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
