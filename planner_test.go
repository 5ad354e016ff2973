package dgs

// Planner-layer tests: the planner-on/planner-off parity matrix (plans
// are advisory — the counter fixpoint is confluent, so both arms must
// produce identical results with identical result accounting), the
// absent-label short-circuit (zero distributed work, zero wire frames),
// canonical-key sharing of standing queries (equivalent-modulo-renaming
// Watches join one maintenance session and pay each batch once), and
// the Explain inspection surface.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPlannerParityMatrix runs every algorithm over a default
// (planner-on) and a WithPlannerDisabled deployment of the same
// partition, across all three transport modes (in-process, TCP, TCP
// with heartbeats): the match relations must be identical — both equal
// the centralized oracle — and so must the result accounting
// (ResultBytes serializes the final relation, which order cannot
// change).
func TestPlannerParityMatrix(t *testing.T) {
	ctx := context.Background()
	type world struct {
		name string
		g    *Graph
		part *Partition
		qs   []confQuery
		tree bool
	}
	mkWorlds := func(t *testing.T) []world {
		t.Helper()
		var out []world
		{
			dict := NewDict()
			g := GenSynthetic(dict, 400, 1200, 91)
			part, err := PartitionRandom(g, 4, 91)
			if err != nil {
				t.Fatal(err)
			}
			dq, err := GenDAGPattern(dict, 5, 7, 3, 92)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, world{
				name: "cyclic", g: g, part: part,
				qs: []confQuery{
					{"cyclicQ", GenCyclicPatternOver(dict, 4, 6, 4, 93)},
					{"dagQ", dq},
				},
			})
		}
		{
			dict := NewDict()
			g := GenTree(dict, 400, 94)
			part, err := PartitionTree(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, world{
				name: "tree", g: g, part: part, tree: true,
				qs: []confQuery{{"treeQ", GenTreePattern(dict, 4, 95)}},
			})
		}
		return out
	}
	for _, mode := range confModes(t) {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			worlds := mkWorlds(t)
			type rec struct {
				m           *Match
				resultBytes int64
			}
			var arms [2]map[string]rec
			for arm := 0; arm < 2; arm++ {
				off := arm == 1
				recs := make(map[string]rec)
				covered := make(map[Algorithm]bool)
				for _, wl := range worlds {
					opts := mode.extra(t)
					if off {
						opts = append(opts, WithPlannerDisabled())
					}
					dep, err := Deploy(wl.part, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if (dep.Planner() == "") != off {
						dep.Close()
						t.Fatalf("planner %q on deployment with plannerOff=%v", dep.Planner(), off)
					}
					for _, cq := range wl.qs {
						oracle := Simulate(cq.q, wl.g)
						for _, algo := range confAlgos {
							var qopts []QueryOption
							switch algo {
							case AlgoDGPMd:
								if !cq.q.IsDAG() && !wl.tree {
									continue
								}
								if wl.tree {
									qopts = append(qopts, WithGraphIsDAG())
								}
							case AlgoDGPMt:
								if !wl.tree {
									continue
								}
							}
							name := fmt.Sprintf("%s/%s/%s", wl.name, cq.name, algo)
							res, err := dep.Query(ctx, cq.q, append(qopts, WithAlgorithm(algo))...)
							if err != nil {
								dep.Close()
								t.Fatalf("%s (off=%v): %v", name, off, err)
							}
							if !res.Match.Equal(oracle) {
								dep.Close()
								t.Fatalf("%s (off=%v): diverges from Simulate", name, off)
							}
							recs[name] = rec{res.Match, res.Stats.ResultBytes}
							covered[algo] = true
						}
					}
					dep.Close()
				}
				for _, algo := range confAlgos {
					if !covered[algo] {
						t.Fatalf("algorithm %s was never exercised by the parity matrix", algo)
					}
				}
				arms[arm] = recs
			}
			if len(arms[0]) != len(arms[1]) {
				t.Fatalf("arms ran different combinations: %d vs %d", len(arms[0]), len(arms[1]))
			}
			for name, on := range arms[0] {
				off, ok := arms[1][name]
				if !ok {
					t.Fatalf("%s ran only in the planner-on arm", name)
				}
				if !on.m.Equal(off.m) {
					t.Fatalf("%s: planner-on and planner-off relations diverge", name)
				}
				if on.resultBytes != off.resultBytes {
					t.Fatalf("%s: ResultBytes differ across arms: on=%d off=%d",
						name, on.resultBytes, off.resultBytes)
				}
			}
		})
	}
}

// TestQueryAbsentLabelShortCircuit: a query whose label has no
// occurrence in the deployed graph answers ∅ without opening a session
// — zero stats in-process, and on a TCP deployment zero wire frames
// moved (the regression surface: the short-circuit must fire before any
// transport work).
func TestQueryAbsentLabelShortCircuit(t *testing.T) {
	ctx := context.Background()
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, 61)
	q, err := ParsePattern(dict, "node a zz_absent\nnode b l0\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	oracle := Simulate(q, g)
	if oracle.Ok() {
		t.Fatal("oracle sanity: absent-label pattern must not match")
	}

	t.Run("inproc", func(t *testing.T) {
		part, err := PartitionRandom(g, 4, 61)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := Deploy(part)
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		for _, algo := range confAlgos {
			if algo == AlgoDGPMt {
				continue // needs a tree world; the short-circuit is algorithm-independent
			}
			res, err := dep.Query(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if res.Match.Ok() || res.Match.NumPairs() != 0 || !res.Match.Equal(oracle) {
				t.Fatalf("%s: absent-label query returned a non-empty relation", algo)
			}
			if res.Stats != (Stats{}) {
				t.Fatalf("%s: absent-label query did distributed work: %+v", algo, res.Stats)
			}
		}
		// The planner-off arm computes the same ∅ the long way.
		part2, err := PartitionRandom(g, 4, 61)
		if err != nil {
			t.Fatal(err)
		}
		depOff, err := Deploy(part2, WithPlannerDisabled())
		if err != nil {
			t.Fatal(err)
		}
		defer depOff.Close()
		res, err := depOff.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Match.Equal(oracle) {
			t.Fatal("planner-off absent-label query diverges from oracle")
		}
	})

	t.Run("tcp", func(t *testing.T) {
		if testing.Short() {
			t.Skip("loopback-TCP short-circuit skipped in -short mode")
		}
		part, err := PartitionRandom(g, 4, 62)
		if err != nil {
			t.Fatal(err)
		}
		addrs := startSiteServers(t, 2)
		dep, err := Deploy(part, WithRemoteSites(addrs...))
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		// Warm up with a real query so the sockets have settled traffic,
		// then let trailing acks drain before snapshotting the meters.
		warm := GenCyclicPatternOver(dict, 3, 5, 4, 63)
		if _, err := dep.Query(ctx, warm); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		sent0, recv0 := dep.WireFrames()
		res, err := dep.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Match.Ok() || !res.Match.Equal(oracle) {
			t.Fatal("remote absent-label query returned a non-empty relation")
		}
		if res.Stats.WireBytes != 0 {
			t.Fatalf("absent-label query metered %d wire bytes, want 0", res.Stats.WireBytes)
		}
		sent1, recv1 := dep.WireFrames()
		if sent1 != sent0 || recv1 != recv0 {
			t.Fatalf("absent-label query moved wire frames: sent %d->%d received %d->%d",
				sent0, sent1, recv0, recv1)
		}
	})
}

// TestWatchSharedAcrossRenamedPatterns: on a planner-on deployment,
// Watches whose patterns are equal modulo node renaming share one
// union-session block (the joiner pays nothing), distinct patterns
// coexist as separate blocks of the same session, every handle reads
// its relation through its own node names, and the session is torn down
// when the last handle closes.
func TestWatchSharedAcrossRenamedPatterns(t *testing.T) {
	ctx := context.Background()
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, 71)
	part, err := PartitionRandom(g, 4, 71)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	parse := func(src string) *Pattern {
		t.Helper()
		q, err := ParsePattern(dict, src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q1 := parse("node a l0\nnode b l1\nedge a b\nedge b a")
	q2 := parse("node p l1\nnode q l0\nedge p q\nedge q p") // q1 renamed and reordered
	q3 := parse("node a l0\nnode b l1\nedge a b")           // structurally distinct
	if q1.CanonicalKey() != q2.CanonicalKey() {
		t.Fatal("renamed-equivalent patterns must share a canonical key")
	}
	if q1.CanonicalKey() == q3.CanonicalKey() {
		t.Fatal("distinct patterns must not share a canonical key")
	}

	w1, err := dep.Watch(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := dep.Watch(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w1.shard == nil || w1.shard != w2.shard {
		t.Fatal("equivalent watches must share the maintenance session")
	}
	if w1.block != w2.block {
		t.Fatal("equivalent watches must share one union block")
	}
	w3, err := dep.Watch(ctx, q3)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if w3.shard != w1.shard {
		t.Fatal("distinct watch must join the same shared session")
	}
	if w3.block == w1.block {
		t.Fatal("distinct watch must get its own block")
	}
	checkAll := func(stage string) {
		t.Helper()
		cur := part.CurrentGraph()
		for i, wq := range []struct {
			w *Maintained
			q *Pattern
		}{{w1, q1}, {w2, q2}, {w3, q3}} {
			if wq.w.Stale() {
				t.Fatalf("%s: watch %d is stale", stage, i+1)
			}
			if !wq.w.Current().Equal(Simulate(wq.q, cur)) {
				t.Fatalf("%s: watch %d diverges from its oracle", stage, i+1)
			}
		}
	}
	checkAll("initial")

	// Deletion-only batches are absorbed incrementally, once per batch.
	stream := GenUpdateStream(part.CurrentGraph(), 40, 0, 72)
	for bi, batch := range BatchOps(stream, 20) {
		st, err := dep.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if st.Reevaluated != 0 {
			t.Fatalf("batch %d: deletion-only batch re-evaluated %d handles", bi, st.Reevaluated)
		}
		checkAll(fmt.Sprintf("deletion batch %d", bi))
	}

	// An insertion batch re-evaluates the shared session ONCE: every
	// handle reports the re-evaluation, but the maintenance bill is one
	// window's cost, not one per handle.
	ins := GenUpdateStream(part.CurrentGraph(), 5, 25, 73)
	st, err := dep.Apply(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reevaluated != 3 {
		t.Fatalf("Reevaluated = %d, want 3 (every handle reports the shared re-evaluation)", st.Reevaluated)
	}
	if st.Maintenance.DataBytes != w1.LastStats().DataBytes {
		t.Fatalf("maintenance bill %d B != one session window %d B (shared session must pay once)",
			st.Maintenance.DataBytes, w1.LastStats().DataBytes)
	}
	checkAll("insertion batch")

	// Closing one handle of a shared block leaves the others live.
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	more := GenUpdateStream(part.CurrentGraph(), 20, 0, 74)
	if _, err := dep.Apply(ctx, more); err != nil {
		t.Fatal(err)
	}
	cur := part.CurrentGraph()
	if !w2.Current().Equal(Simulate(q2, cur)) || !w3.Current().Equal(Simulate(q3, cur)) {
		t.Fatal("surviving watches diverge after a peer closed")
	}

	// The last close tears the session down; a fresh Watch starts anew.
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	if w3.shard.st != nil || w3.shard.blocks != nil {
		t.Fatal("session must close when the last handle departs")
	}
	w4, err := dep.Watch(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	defer w4.Close()
	if !w4.Current().Equal(Simulate(q1, part.CurrentGraph())) {
		t.Fatal("fresh watch after teardown diverges from oracle")
	}
}

// TestWatchAbsentLabelStatic: a standing query over an absent label
// never opens a maintenance session — its handle serves ∅ statically
// and no Apply batch re-evaluates or stales it (edge updates cannot
// mint label occurrences).
func TestWatchAbsentLabelStatic(t *testing.T) {
	ctx := context.Background()
	dict := NewDict()
	g := GenSynthetic(dict, 200, 600, 75)
	part, err := PartitionRandom(g, 4, 75)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	q, err := ParsePattern(dict, "node a zz_ghost\nnode b l0\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.shard != nil {
		t.Fatal("absent-label watch opened a maintenance session")
	}
	if w.Current().Ok() || w.Current().NumPairs() != 0 {
		t.Fatal("absent-label watch must serve ∅")
	}
	// Deletions and insertions flow past it without any refresh work.
	stream := GenUpdateStream(part.CurrentGraph(), 10, 20, 76)
	st, err := dep.Apply(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reevaluated != 0 {
		t.Fatalf("static handle re-evaluated: %+v", st)
	}
	if st.Maintenance != (Stats{}) {
		t.Fatalf("static handle billed maintenance: %+v", st.Maintenance)
	}
	if w.Stale() {
		t.Fatal("static handle went stale")
	}
	if !w.Current().Equal(Simulate(q, part.CurrentGraph())) {
		t.Fatal("static handle diverges from oracle after updates")
	}
	// Refresh on a static handle is a no-op, not an error.
	if err := w.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	// The planner-off baseline evaluates the same pattern with a real
	// session and reaches the same ∅.
	part2, err := PartitionRandom(g, 4, 75)
	if err != nil {
		t.Fatal(err)
	}
	depOff, err := Deploy(part2, WithPlannerDisabled())
	if err != nil {
		t.Fatal(err)
	}
	defer depOff.Close()
	wOff, err := depOff.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer wOff.Close()
	if wOff.shard == nil {
		t.Fatal("planner-off watch must hold its own session")
	}
	if wOff.Current().Ok() {
		t.Fatal("planner-off absent-label watch must still serve ∅")
	}
}

// TestSharedMaintenanceCheaperThanIndependent: 4 equivalent standing
// queries on a planner-on deployment share one session, so an
// insertion batch (full re-evaluation) bills roughly a quarter of what
// 4 independent planner-off sessions pay. The acceptance bar is ≥1.5×;
// the structural expectation is ~4×, so assert ≥2×.
func TestSharedMaintenanceCheaperThanIndependent(t *testing.T) {
	ctx := context.Background()
	dict := NewDict()
	g := GenSynthetic(dict, 400, 1200, 81)
	renamings := []string{
		"node a l0\nnode b l1\nedge a b\nedge b a",
		"node x l0\nnode y l1\nedge x y\nedge y x",
		"node m l1\nnode n l0\nedge m n\nedge n m",
		"node s l1\nnode t l0\nedge t s\nedge s t",
	}
	qs := make([]*Pattern, len(renamings))
	for i, src := range renamings {
		q, err := ParsePattern(dict, src)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
		if q.CanonicalKey() != qs[0].CanonicalKey() {
			t.Fatalf("renaming %d does not share the canonical key", i)
		}
	}
	deployArm := func(off bool) (*Deployment, *Partition, []*Maintained) {
		t.Helper()
		part, err := PartitionRandom(g, 4, 81)
		if err != nil {
			t.Fatal(err)
		}
		var opts []DeployOption
		if off {
			opts = append(opts, WithPlannerDisabled())
		}
		dep, err := Deploy(part, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dep.Close() })
		ws := make([]*Maintained, len(qs))
		for i, q := range qs {
			if ws[i], err = dep.Watch(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		return dep, part, ws
	}
	depShared, partShared, wsShared := deployArm(false)
	depSolo, partSolo, wsSolo := deployArm(true)
	for i := 1; i < len(wsShared); i++ {
		if wsShared[i].shard != wsShared[0].shard || wsShared[i].block != wsShared[0].block {
			t.Fatal("planner-on equivalent watches must share one block")
		}
		if wsSolo[i].shard == wsSolo[0].shard {
			t.Fatal("planner-off watches must hold independent sessions")
		}
	}

	// The same batch (valid against both arms' identical graphs), with
	// insertions so every session re-evaluates.
	ops := GenUpdateStream(partShared.CurrentGraph(), 10, 30, 82)
	stShared, err := depShared.Apply(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	stSolo, err := depSolo.Apply(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if !wsShared[i].Current().Equal(Simulate(q, partShared.CurrentGraph())) {
			t.Fatalf("shared watch %d diverges from oracle", i)
		}
		if !wsSolo[i].Current().Equal(Simulate(q, partSolo.CurrentGraph())) {
			t.Fatalf("independent watch %d diverges from oracle", i)
		}
	}
	shared, solo := stShared.Maintenance.DataBytes, stSolo.Maintenance.DataBytes
	if solo == 0 {
		t.Fatal("independent maintenance metered no bytes; the workload is too small to compare")
	}
	if solo < 2*shared {
		t.Fatalf("shared maintenance not cheaper: shared=%d B vs independent=%d B (want ≥2×)", shared, solo)
	}
	t.Logf("maintenance bytes for 4 equivalent watches: shared=%d independent=%d (%.1fx)",
		shared, solo, float64(solo)/float64(max64(shared, 1)))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestExplain covers the plan inspection surface: orders sorted by the
// greedy selectivity estimates, the renaming-invariant canonical key,
// the Empty verdict, and the declaration-order fallback with planning
// disabled.
func TestExplain(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, 85)
	part, err := PartitionRandom(g, 4, 85)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	q, err := ParsePattern(dict, "node a l0\nnode b l1\nedge a b\nedge b a")
	if err != nil {
		t.Fatal(err)
	}
	pi, err := dep.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Planner == "" || pi.Planner != dep.Planner() {
		t.Fatalf("planner %q, want the deployment's %q", pi.Planner, dep.Planner())
	}
	if pi.CanonicalKey != q.CanonicalKey() {
		t.Fatal("Explain's canonical key differs from the pattern's")
	}
	if len(pi.Nodes) != q.NumNodes() || len(pi.Edges) != q.NumEdges() {
		t.Fatalf("plan covers %d nodes / %d edges, pattern has %d / %d",
			len(pi.Nodes), len(pi.Edges), q.NumNodes(), q.NumEdges())
	}
	if pi.Empty {
		t.Fatal("present labels reported Empty")
	}
	for i := 1; i < len(pi.Nodes); i++ {
		if pi.Nodes[i-1].Est > pi.Nodes[i].Est {
			t.Fatalf("seed order not ascending in estimate: %+v", pi.Nodes)
		}
	}
	for i := 1; i < len(pi.Edges); i++ {
		if pi.Edges[i-1].Est > pi.Edges[i].Est {
			t.Fatalf("edge order not ascending in selectivity: %+v", pi.Edges)
		}
	}
	for _, n := range pi.Nodes {
		if n.Est == 0 {
			t.Fatalf("node %s estimated 0 candidates on a populated label", n.Name)
		}
	}
	s := pi.String()
	for _, want := range []string{"planner:", "seed order", "edge order", "canonical key:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered plan misses %q:\n%s", want, s)
		}
	}

	// Absent label: the Empty verdict, rendered.
	qa, err := ParsePattern(dict, "node a zz_void\nnode b l0\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	pia, err := dep.Explain(qa)
	if err != nil {
		t.Fatal(err)
	}
	if !pia.Empty {
		t.Fatal("absent label not reported Empty")
	}
	if !strings.Contains(pia.String(), "verdict: empty") {
		t.Fatal("rendered plan misses the empty verdict")
	}

	// Planning disabled: declaration orders, planner named as such.
	part2, err := PartitionRandom(g, 4, 85)
	if err != nil {
		t.Fatal(err)
	}
	depOff, err := Deploy(part2, WithPlannerDisabled())
	if err != nil {
		t.Fatal(err)
	}
	defer depOff.Close()
	piOff, err := depOff.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if piOff.Planner != "" {
		t.Fatalf("disabled deployment reports planner %q", piOff.Planner)
	}
	if piOff.Nodes[0].Name != "a" || piOff.Nodes[1].Name != "b" {
		t.Fatalf("disabled deployment must report declaration order, got %+v", piOff.Nodes)
	}
	if !strings.Contains(piOff.String(), "disabled") {
		t.Fatal("rendered disabled plan must say so")
	}
	if piOff.CanonicalKey != pi.CanonicalKey {
		t.Fatal("canonical key must not depend on the planner")
	}

	// Errors: nil pattern, closed deployment.
	if _, err := dep.Explain(nil); err == nil {
		t.Fatal("Explain(nil) must fail")
	}
	depOff.Close()
	if _, err := depOff.Explain(q); err == nil {
		t.Fatal("Explain on a closed deployment must fail")
	}
}
