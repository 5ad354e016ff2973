package dgpm

// Prepared engines. §4.1's initial partial evaluation (lEval, Fig. 4
// lines 1–9) depends only on the pattern and the fragment, and a
// resident deployment answers many queries against one fragment
// version. So the first engine a site builds for a pattern on an index
// files a compact snapshot of its post-fixpoint state on that
// index, and every later session with the same key on the same index
// restores the engine from it instead of re-running the seed scan and
// propagate. The snapshot keeps the engine's alive bits — a bit per
// candidate, so kilobytes where the fragment is megabytes — with their
// per-word ranks, the counters of the alive local candidates only (a
// dead variable's counters are never read, and no variable revives),
// the seed kill list in order, and the benefit tallies. The query-only
// parts (edge lists, candidate ranges, word offsets) are shared
// read-only. A restore clones the bits and the counters and nothing
// else of the fixpoint, and finds an alive variable's counter by its
// rank in the snapshot's bits (Engine.slot). A mutation moves the
// fragment to a new index with an empty memo, so state is never restored
// onto a fragment version it was not built on.
//
// §4.2's push test reads only that state, so the session that files a
// snapshot files its push verdict with it, and a restored session under
// the same budget sends the filed plans instead of testing again.

import (
	"math/bits"
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
// index already says. It is shared by every engine restored from it and
// never changed.
type snapshot struct {
	// The query-only state, shared read-only with the restored engines.
	qedges    []qEdge
	eOut, eIn [][]int32
	constTrue []bool
	lo, hi    []int32
	off       []int32

	// alive is the engine's alive bits after the fixpoint. rank[k] counts
	// the alive local candidates in the words of the same query node's
	// row before word k. cells holds, edge ei's in
	// cells[cntOff[ei]:cntOff[ei+1]], the counters of the edge parent's
	// alive local candidates, ascending by position.
	alive  []uint64
	rank   []int32
	cells  []int32
	cntOff []int32

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
		qedges: e.qedges, eOut: e.eOut, eIn: e.eIn, constTrue: e.constTrue, lo: e.lo, hi: e.hi, off: e.off,
		alive: slices.Clone(e.alive), rank: make([]int32, len(e.alive)), cntOff: make([]int32, len(e.qedges)+1),
		out: slices.Clone(e.out), unevalIn: e.unevalIn, unevalVirt: e.unevalVirt, mut: e.mut,
	}
	alive := make([]int32, len(e.lo)) // alive local candidates per query node
	for u := range pattern.QNode(len(e.lo)) {
		row, n := e.row(u), e.hi[u]-e.lo[u]
		for k := int32(0); k<<6 < n; k++ {
			s.rank[e.off[u]+k] = alive[u]
			alive[u] += int32(bits.OnesCount64(localWord(row, n, k)))
		}
	}
	for ei, qe := range e.qedges {
		s.cntOff[ei+1] = s.cntOff[ei] + alive[qe.parent]
	}
	s.cells = make([]int32, s.cntOff[len(e.qedges)])
	for ei, qe := range e.qedges {
		u, cnt, j := qe.parent, e.cnt(ei), s.cntOff[ei]
		row, n := e.row(u), e.hi[u]-e.lo[u]
		for k := int32(0); k<<6 < n; k++ {
			for w := localWord(row, n, k); w != 0; w &= w - 1 {
				s.cells[j] = cnt[k<<6+int32(bits.TrailingZeros64(w))]
				j++
			}
		}
	}
	return s
}

// restore rebuilds the engine s was taken from, on ix (the index it is
// filed on) and for q (the pattern it was built for): a copy of the
// snapshot's alive bits and counters, the only state its session can
// change, beside everything else shared.
func (s *snapshot) restore(q *pattern.Pattern, frag *partition.Fragment, ix *partition.Index) *Engine {
	engineRestores.Add(1)
	e := &Engine{
		q: q, frag: frag,
		qedges: s.qedges, eOut: s.eOut, eIn: s.eIn, constTrue: s.constTrue, lo: s.lo, hi: s.hi, off: s.off,
		alive: slices.Clone(s.alive), cells: slices.Clone(s.cells), cntOff: s.cntOff,
		snapBits: s.alive, rank: s.rank,
		ext:      make(map[varKey]*extVar),
		eqWatch:  make(map[varKey][]eqWatcher),
		out:      s.out[:len(s.out):len(s.out)],
		outFiled: true,
		unevalIn: s.unevalIn, unevalVirt: s.unevalVirt, mut: s.mut,
		snap:  s,
		Evals: 1,
	}
	e.borrow(ix)
	return e
}
