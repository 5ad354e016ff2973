package dgpm

// Prepared engines. §4.1's initial partial evaluation (lEval, Fig. 4
// lines 1–9) depends only on the pattern and the fragment, and a
// resident deployment answers many queries against one fragment
// version. So the first engine a site builds for a pattern on an index
// files a compact snapshot of its post-fixpoint state on that
// index, and every later session with the same key on the same index
// restores the engine from it instead of re-running the seed scan and
// propagate. The snapshot keeps only what is non-zero and read: the
// alive local candidates with their counters (a dead variable's counters
// are never read), the seed kill list in order, and the benefit tallies.
// Virtual candidates need no record — the fixpoint never kills one — and
// the query-only parts (edge lists, candidate ranges) are shared
// read-only. A mutation moves the fragment to a new index with an
// empty memo, so state is never restored onto a fragment version it was
// not built on.
//
// §4.2's push test reads only that state, so the session that files a
// snapshot files its push verdict with it, and a restored session under
// the same budget sends the filed plans instead of testing again. The
// alive lists bound the answer: no path revives a local variable, so an
// engine from a snapshot reports its local matches (LocalMatches) by
// checking only the positions the snapshot lists.

import (
	"slices"
	"sync/atomic"

	"dgs/internal/partition"
	"dgs/internal/pattern"
)

// engineBuilds and engineRestores count, process-wide, the engines built
// from scratch and those restored from prepared state.
var engineBuilds, engineRestores atomic.Uint64

// EngineCounts reports how many engines this process has built from
// scratch and how many it has restored from prepared state.
func EngineCounts() (builds, restores uint64) {
	return engineBuilds.Load(), engineRestores.Load()
}

// preparedKey is what a session's prepared state is filed under: the
// spec's query blob. Every session of one pattern therefore shares one
// prepared state per fragment version, whichever entry point opened it.
func preparedKey(query []byte) string { return string(query) }

// prepare returns the engine of q on frag's current index:
// restored from the snapshot filed there under key, or built and filed
// with its push verdict under cfg. Build and filing use the one index
// taken here, so a snapshot always describes the index it is filed on.
func prepare(q *pattern.Pattern, frag *partition.Fragment, key string, cfg Config) *Engine {
	ix := frag.Index()
	if s, ok := ix.Prepared(key).(*snapshot); ok {
		return s.restore(q, frag, ix)
	}
	e := build(q, frag, ix)
	e.file(key, cfg)
	return e
}

// file files e's snapshot, with e's push verdict under cfg when cfg
// tests push, under key on the index e was built on; e must be as build
// returned it.
func (e *Engine) file(key string, cfg Config) {
	s := e.snapshot()
	if budget, ok := cfg.budget(e); ok {
		s.push = &verdict{budget: budget, plans: e.planPush(budget)}
	}
	e.snap = s
	e.ix.Prepare(key, s)
}

// verdict is planPush's answer under budget.
type verdict struct {
	budget int
	plans  []pushPlan
}

// pushVerdict returns planPush(budget): the verdict e's snapshot filed,
// when it filed one under budget and e has not changed since, or a fresh
// test. A filed verdict is shared by every engine restored from the
// snapshot and must not be changed.
func (e *Engine) pushVerdict(budget int) []pushPlan {
	if s := e.snap; s != nil && s.push != nil && s.push.budget == budget && e.mut == s.mut {
		return s.push.plans
	}
	return e.planPush(budget)
}

// snapshot is an engine's state as its build left it, minus what the
// index or a zeroed row already says. It is shared by every engine
// restored from it and never changed.
type snapshot struct {
	// The query-only state, shared read-only with the restored engines.
	qedges    []qEdge
	eOut, eIn [][]int32
	constTrue []bool
	lo, hi    []int32
	ncells    int

	// alive[u] lists the positions li − lo[u] of u's alive local
	// candidates, ascending; leaves have none listed, as all of their
	// candidates stay alive. cnt[ei] holds the counters of those of the
	// edge's parent, in the same order.
	alive [][]int32
	cnt   [][]int32

	out                  []visVar // the seed kills of in-node variables, in order
	unevalIn, unevalVirt int
	mut                  uint64

	// push is the filing session's push verdict; nil when it tested no
	// push.
	push *verdict
}

// snapshot records e, which must be as build returned it.
func (e *Engine) snapshot() *snapshot {
	s := &snapshot{
		qedges: e.qedges, eOut: e.eOut, eIn: e.eIn, constTrue: e.constTrue, lo: e.lo, hi: e.hi,
		alive: make([][]int32, len(e.alive)), cnt: make([][]int32, len(e.qedges)),
		out: slices.Clone(e.out), unevalIn: e.unevalIn, unevalVirt: e.unevalVirt, mut: e.mut,
	}
	for _, row := range e.cnt {
		s.ncells += len(row)
	}
	for u, row := range e.alive {
		if e.constTrue[u] {
			continue
		}
		cands := row[e.lo[u]:e.hi[u]]
		n := 0
		for _, ok := range cands {
			if ok {
				n++
			}
		}
		ps := make([]int32, 0, n)
		for p, ok := range cands {
			if ok {
				ps = append(ps, int32(p))
			}
		}
		s.alive[u] = ps
	}
	for ei, qe := range e.qedges {
		ps := s.alive[qe.parent]
		cnt := make([]int32, len(ps))
		for j, p := range ps {
			cnt[j] = e.cnt[ei][p]
		}
		s.cnt[ei] = cnt
	}
	return s
}

// restore rebuilds the engine s was taken from, on ix (the index it is
// filed on) and for q (the pattern it was built for): fresh zeroed rows
// with the alive flags and counters written back.
func (s *snapshot) restore(q *pattern.Pattern, frag *partition.Fragment, ix *partition.Index) *Engine {
	engineRestores.Add(1)
	e := &Engine{
		q: q, frag: frag,
		qedges: s.qedges, eOut: s.eOut, eIn: s.eIn, constTrue: s.constTrue, lo: s.lo, hi: s.hi,
		ext:      make(map[varKey]*extVar),
		eqWatch:  make(map[varKey][]eqWatcher),
		out:      slices.Clone(s.out),
		unevalIn: s.unevalIn, unevalVirt: s.unevalVirt, mut: s.mut,
		snap:  s,
		Evals: 1,
	}
	e.borrow(ix)
	nq, nvis := len(s.constTrue), len(ix.Vis)
	e.alive = make([][]bool, nq)
	rows := make([]bool, nq*nvis)
	for u := range nq {
		row := rows[u*nvis : (u+1)*nvis : (u+1)*nvis]
		lo := s.lo[u]
		if s.constTrue[u] {
			for i := lo; i < s.hi[u]; i++ {
				row[i] = true
			}
		}
		for _, p := range s.alive[u] {
			row[lo+p] = true
		}
		for _, i := range ix.Virt[q.Label(pattern.QNode(u))] {
			row[i] = true
		}
		e.alive[u] = row
	}
	cells := make([]int32, s.ncells)
	e.cnt = make([][]int32, len(s.qedges))
	for ei, qe := range s.qedges {
		n := s.hi[qe.parent] - s.lo[qe.parent]
		row := cells[:n:n]
		cells = cells[n:]
		for j, p := range s.alive[qe.parent] {
			row[p] = s.cnt[ei][j]
		}
		e.cnt[ei] = row
	}
	return e
}
