package dgpm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// keyOf is the prepared-state key a session spec for q under pl carries.
func keyOf(q *pattern.Pattern, pl *plan.Plan) string {
	spec := sessionSpec(q, DefaultConfig(), pl, 0)
	return preparedKey(spec.Query, spec.Plan)
}

// restored is prepare on a fragment whose memo holds key: it fails the
// test unless the engine was restored rather than built.
func restored(t *testing.T, q *pattern.Pattern, frag *partition.Fragment, pl *plan.Plan, key string) *Engine {
	t.Helper()
	b0, r0 := EngineCounts()
	e := prepare(q, frag, pl, key)
	if b1, r1 := EngineCounts(); b1 != b0 || r1 != r0+1 {
		t.Fatalf("prepare built %d and restored %d engines, want one restore", b1-b0, r1-r0)
	}
	return e
}

// sameEngine holds got against want, a fresh build driven through the
// same stream: alive rows, the counters of alive variables, benefit
// tallies, local matches, evaluation count and Drain order. Both engines
// are drained.
func sameEngine(t *testing.T, what string, got, want *Engine) {
	t.Helper()
	if !reflect.DeepEqual(got.alive, want.alive) {
		t.Fatalf("%s: alive rows differ from a fresh build", what)
	}
	for ei, qe := range want.qedges {
		u := qe.parent
		for li := want.lo[u]; li < want.hi[u]; li++ {
			if p := li - want.lo[u]; want.alive[u][li] && got.cnt[ei][p] != want.cnt[ei][p] {
				t.Fatalf("%s: X(%d,%d) edge %d: counter %d, fresh build %d", what, u, want.vis[li], ei, got.cnt[ei][p], want.cnt[ei][p])
			}
		}
	}
	checkCounters(t, what, got)
	gi, gv := got.UnevaluatedCounts()
	wi, wv := want.UnevaluatedCounts()
	if gi != wi || gv != wv {
		t.Fatalf("%s: UnevaluatedCounts (%d,%d), fresh build (%d,%d)", what, gi, gv, wi, wv)
	}
	if g, w := got.LocalMatches(), want.LocalMatches(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: LocalMatches differ from a fresh build", what)
	}
	if got.Evals != want.Evals {
		t.Fatalf("%s: Evals %d, fresh build %d", what, got.Evals, want.Evals)
	}
	if g, w := got.Drain(), want.Drain(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Drain order differs from a fresh build:\n got %v\nwant %v", what, g, w)
	}
}

// checkPrepared files q's engine on frag under pl, restores it, and holds
// the restored engine against a fresh build — as restored, and through
// one falsification batch, the equations the other fragments push at
// θ = 0, falsifications against those, and edge deletions. A second
// restore afterwards must still equal a fresh build: driving the first
// must have left the snapshot as it was.
func checkPrepared(t *testing.T, r *rand.Rand, what string, q *pattern.Pattern, fr *partition.Fragmentation, frag *partition.Fragment, pl *plan.Plan) {
	t.Helper()
	key := keyOf(q, pl)
	prepare(q, frag, pl, key)
	got, want := restored(t, q, frag, pl, key), NewEnginePlanned(q, frag, pl)
	sameEngine(t, what+" restored", got, want)

	var batch []wire.VarRef
	for _, v := range frag.Virtual {
		if r.Intn(3) == 0 {
			batch = append(batch, wire.VarRef{U: uint16(r.Intn(q.NumNodes())), V: uint32(v)})
		}
	}
	got.ApplyFalsifications(batch)
	want.ApplyFalsifications(batch)
	sameEngine(t, what+" falsified", got, want)

	for _, other := range fr.Frags {
		if other == frag {
			continue
		}
		for _, pp := range NewEnginePlanned(q, other, pl).planPush(math.MaxInt) {
			if pp.dest != frag.ID {
				continue
			}
			got.InstallEquations(pp.eqs)
			want.InstallEquations(pp.eqs)
			sameEngine(t, what+" equations installed", got, want)
			batch = batch[:0]
			for _, eq := range pp.eqs {
				for _, g := range eq.Groups {
					if len(g) > 0 && r.Intn(3) == 0 {
						batch = append(batch, g[r.Intn(len(g))])
					}
				}
			}
			got.ApplyFalsifications(batch)
			want.ApplyFalsifications(batch)
			sameEngine(t, what+" equations falsified", got, want)
		}
	}

	var edges [][2]graph.NodeID
	for _, v := range frag.Local {
		for _, w := range frag.Succ[v] {
			if r.Intn(4) == 0 {
				edges = append(edges, [2]graph.NodeID{v, w})
			}
		}
	}
	for len(edges) > 0 {
		n := 1 + r.Intn(min(3, len(edges)))
		got.ApplyEdgeDeletions(edges[:n])
		want.ApplyEdgeDeletions(edges[:n])
		edges = edges[n:]
		sameEngine(t, what+" edges deleted", got, want)
	}

	sameEngine(t, what+" restored again", restored(t, q, frag, pl, key), NewEnginePlanned(q, frag, pl))
}

func TestPreparedMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		q, g, fr := randomCase(r)
		greedy := plan.GreedyPlan(q, plan.Collect(g))
		for _, frag := range fr.Frags {
			checkPrepared(t, r, fmt.Sprintf("seed %d frag %d", seed, frag.ID), q, fr, frag, nil)
			checkPrepared(t, r, fmt.Sprintf("seed %d frag %d greedy", seed, frag.ID), q, fr, frag, greedy)
		}
	}
	fr, qs, pls := localEight(t, 6_000, 30_000)
	r := rand.New(rand.NewSource(1))
	for i, q := range qs {
		for _, frag := range fr.Frags {
			checkPrepared(t, r, fmt.Sprintf("catalog %d frag %d", i, frag.ID), q, fr, frag, pls[i])
		}
	}
}

// An engine files its snapshot on the index it was built on: when the
// fragment has moved on since, the current index does not get it, and
// the next session there builds afresh.
func TestStaleEngineNotFiledOnCurrentIndex(t *testing.T) {
	fr, qs, pls := localEight(t, 6_000, 30_000)
	frag := fr.Frags[0]
	q, pl := qs[0], pls[0]
	key := keyOf(q, pl)
	stale := frag.Index()
	e := build(q, frag, stale, pl)
	v := frag.Local[0]
	for len(frag.Succ[v]) == 0 {
		v++
	}
	if err := partition.ApplyBatchLocal(fr, [][2]graph.NodeID{{v, frag.Succ[v][0]}}, nil); err != nil {
		t.Fatal(err)
	}
	e.file(key)
	cur := frag.Index()
	if cur == stale {
		t.Fatal("the deletion left the fragment on its old index")
	}
	if cur.Prepared(key) != nil {
		t.Fatal("an engine built on a stale index was filed on the current one")
	}
	if stale.Prepared(key) == nil {
		t.Fatal("the engine was not filed on the index it was built on")
	}
	b0, r0 := EngineCounts()
	got := prepare(q, frag, pl, key)
	if b1, r1 := EngineCounts(); b1 != b0+1 || r1 != r0 {
		t.Fatalf("after the mutation prepare built %d and restored %d engines, want one build", b1-b0, r1-r0)
	}
	sameEngine(t, "built on the current index", got, NewEnginePlanned(q, frag, pl))
}

// Engines restored concurrently from one snapshot, and driven at once,
// share nothing they write: each equals a fresh build (and -race is
// quiet).
func TestConcurrentRestoresShareNoWrites(t *testing.T) {
	fr, qs, pls := localEight(t, 6_000, 30_000)
	var wg sync.WaitGroup
	for _, frag := range fr.Frags[:2] {
		for i, q := range qs[:4] {
			key := keyOf(q, pls[i])
			prepare(q, frag, pls[i], key)
			want := NewEnginePlanned(q, frag, pls[i])
			var batch []wire.VarRef
			for k, v := range frag.Virtual {
				if k%3 == 0 {
					batch = append(batch, wire.VarRef{U: uint16(k % q.NumNodes()), V: uint32(v)})
				}
			}
			want.ApplyFalsifications(batch)
			wantMatches := want.LocalMatches()
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := prepare(q, frag, pls[i], key)
					e.ApplyFalsifications(batch)
					if !reflect.DeepEqual(e.LocalMatches(), wantMatches) {
						t.Errorf("frag %d catalog %d: a concurrent restore diverged from a fresh build", frag.ID, i)
					}
				}()
			}
		}
	}
	wg.Wait()
}

// dGPMNOpt rebuilds its engine from scratch on every falsification it
// receives — the ablation measures exactly that — so with every memo
// warm its sessions restore only at the start signal.
func TestNOptRebuildsNeverRestore(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		q, _, fr := randomCase(rand.New(rand.NewSource(seed)))
		run(q, fr, DefaultConfig()) // files every fragment's snapshot
		b0, r0 := EngineCounts()
		_, st := run(q, fr, NOptConfig())
		b1, r1 := EngineCounts()
		if r1-r0 != uint64(fr.NumFragments()) {
			t.Fatalf("seed %d: %d restores on %d fragments, want one per start signal", seed, r1-r0, fr.NumFragments())
		}
		if b1-b0 != uint64(st.DataMsgs) {
			t.Fatalf("seed %d: %d builds for %d falsification messages, want one per message", seed, b1-b0, st.DataMsgs)
		}
	}
}

// A falsification naming a query node the pattern does not have is
// ignored, by an engine and by a site that a peer sends it to, as it is
// when it comes inside a pushed equation.
func TestForgedQueryNodeIgnored(t *testing.T) {
	q, g, _, assign := fig1()
	fr := mustPartition(t, g, assign)
	frag := fr.Frags[0]
	nq := uint16(q.NumNodes())
	var forged []wire.VarRef
	for _, v := range append(frag.Local[:1:1], frag.Virtual...) {
		forged = append(forged, wire.VarRef{U: nq, V: uint32(v)}, wire.VarRef{U: 60000, V: uint32(v)})
	}

	e, want := NewEngine(q, frag), NewEngine(q, frag)
	e.ApplyFalsifications(forged)
	e.InstallEquations([]wire.Equation{{Target: forged[len(forged)-1], Groups: [][]wire.VarRef{forged}}})
	if !reflect.DeepEqual(e.LocalMatches(), want.LocalMatches()) {
		t.Fatal("forged references changed the engine's local matches")
	}
	// In a group, a variable of no query node is no witness.
	e.InstallEquations([]wire.Equation{{Target: wire.VarRef{U: 0, V: uint32(frag.Virtual[0])}, Groups: [][]wire.VarRef{forged}}})
	if e.isAlive(key(0, frag.Virtual[0])) {
		t.Fatal("an equation whose only group names no query node left its target alive")
	}

	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	coord := &cluster.Collector{}
	sess, err := c.OpenSession(cluster.SessionQuery, sessionSpec(q, DefaultConfig(), nil, 0), coord)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if err := sess.Phase(ctx, &wire.Control{Op: OpStart}); err != nil {
		t.Fatal(err)
	}
	sess.Inject(0, &wire.Falsify{Pairs: forged})
	if err := sess.WaitQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Phase(ctx, &wire.Control{Op: OpReport}); err != nil {
		t.Fatal(err)
	}
	m, err := cluster.MatchFromPairs(q.NumNodes(), len(fr.Assign), coord.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	if want := simulation.HHK(q, g); !m.Canonical().Equal(want) {
		t.Fatalf("after a forged falsification the session answered %v, want %v", m.Canonical(), want)
	}
}

// An update session's Delta is trusted no further than a falsification:
// an edge op whose source is not local or whose target lies outside the
// owner directory, one the fragment refuses, and a watch notice for a
// node the site does not own are all skipped. None may panic the site,
// break the fragment's §2.2 structure, or break its cached index.
func TestForgedDeltaIgnored(t *testing.T) {
	q, g, ids, assign := fig1()
	fr := mustPartition(t, g, assign)
	frag := fr.Frags[0]
	frag.Index() // a site that has served a query has one cached
	yb1, yf1, f1, f2, f3, f4 := ids["yb1"], ids["yf1"], ids["f1"], ids["f2"], ids["f3"], ids["f4"]
	forged := []*wire.Delta{
		{Ins: [][2]uint32{{yb1, 1 << 30}}, InsLabels: []graph.Label{1}}, // target outside the directory
		{Ins: [][2]uint32{{f2, yb1}}, InsLabels: []graph.Label{1}},      // source not local
		{Dels: [][2]uint32{{f2, f3}}},                                   // source not local
		{Dels: [][2]uint32{{yb1, yf1}}},                                 // no such edge
		{Ins: [][2]uint32{{yb1, f1}}, InsLabels: []graph.Label{1}},      // edge already present
		{Watch: []uint32{f2}, Unwatch: []uint32{f4}},                    // nodes site 0 does not own
	}

	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	sess, err := c.OpenSession(cluster.SessionMaintenance, cluster.SessionSpec{Algo: AlgoUpdate}, nopHandler{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range forged {
		sess.Inject(0, d)
	}
	ctx := context.Background()
	if err := sess.WaitQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if err := fr.Validate(); err != nil {
		t.Fatalf("a forged delta corrupted the fragmentation: %v", err)
	}
	if ix := frag.Index(); ix == nil {
		t.Fatal("no index after a forged delta")
	}
	if m, _ := run(q, fr, DefaultConfig()); !m.Equal(simulation.HHK(q, g)) {
		t.Fatalf("after a forged delta dGPM answered %v, want %v", m, simulation.HHK(q, g))
	}
}
