package dgs

// Planner-layer tests: the planned/identity-order parity matrix (plans
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

	"dgs/internal/cluster"
	"dgs/internal/dgpm"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/wire"
)

// referenceEval is the reference arm planned evaluation is compared
// against: the same dGPM session on the same deployment with a nil plan
// — declaration order, no short-circuit.
func referenceEval(t *testing.T, dep *Deployment, q *Pattern, cfg dgpm.Config) (*Match, Stats) {
	t.Helper()
	m, st, _, err := dgpm.Eval(context.Background(), dep.c, q.p, dep.part.fr, cfg, nil, 0)
	if err != nil {
		t.Fatalf("reference evaluation: %v", err)
	}
	return &Match{m: m}, fromCluster(st)
}

// TestPlannerParityMatrix runs every algorithm through Deployment.Query
// (planned) across all three transport modes (in-process, TCP, TCP with
// heartbeats), and the two that accept a plan — dGPM and dGPMNOpt —
// again through the nil-plan reference on the same deployment: the
// match relations must be identical — both equal the centralized oracle
// — and so must the result accounting (ResultBytes serializes the final
// relation, which order cannot change).
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
			refConfigs := map[Algorithm]dgpm.Config{
				AlgoDGPM:      dgpm.DefaultConfig(),
				AlgoDGPMNoOpt: dgpm.NOptConfig(),
			}
			covered := make(map[Algorithm]bool)
			referenced := make(map[Algorithm]bool)
			// A daemon serves one deployment at a time: each world's is
			// closed before the next world deploys.
			runWorld := func(wl world) {
				dep, err := Deploy(wl.part, mode.extra(t)...)
				if err != nil {
					t.Fatal(err)
				}
				defer dep.Close()
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
							t.Fatalf("%s: %v", name, err)
						}
						if !res.Match.Equal(oracle) {
							t.Fatalf("%s: diverges from Simulate", name)
						}
						covered[algo] = true
						cfg, planned := refConfigs[algo]
						if !planned {
							continue
						}
						ref, refStats := referenceEval(t, dep, cq.q, cfg)
						if !ref.Equal(oracle) {
							t.Fatalf("%s: identity-order reference diverges from Simulate", name)
						}
						if !res.Match.Equal(ref) {
							t.Fatalf("%s: planned and identity-order relations diverge", name)
						}
						if res.Stats.ResultBytes != refStats.ResultBytes {
							t.Fatalf("%s: ResultBytes differ across arms: planned=%d reference=%d",
								name, res.Stats.ResultBytes, refStats.ResultBytes)
						}
						referenced[algo] = true
					}
				}
			}
			for _, wl := range mkWorlds(t) {
				runWorld(wl)
			}
			for _, algo := range confAlgos {
				if !covered[algo] {
					t.Fatalf("algorithm %s was never exercised by the parity matrix", algo)
				}
			}
			for algo := range refConfigs {
				if !referenced[algo] {
					t.Fatalf("algorithm %s never ran against the identity-order reference", algo)
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
		// The reference arm computes the same ∅ the long way.
		ref, refStats := referenceEval(t, dep, q, dgpm.DefaultConfig())
		if !ref.Equal(oracle) {
			t.Fatal("reference absent-label evaluation diverges from oracle")
		}
		if refStats == (Stats{}) {
			t.Fatal("reference arm metered nothing: it must run the full protocol")
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
		// The reference arm reaches the same ∅ through the sockets.
		ref, refStats := referenceEval(t, dep, q, dgpm.DefaultConfig())
		if !ref.Equal(oracle) {
			t.Fatal("remote reference absent-label evaluation diverges from oracle")
		}
		if refStats.WireBytes == 0 {
			t.Fatal("remote reference arm metered no wire bytes: the frame meters guard nothing")
		}
	})
}

// TestOpenRejectsIllFittingPlan: a site trusts a received plan only
// after Plan.Fits — a plan blob that is not a permutation of the
// pattern's nodes and edges fails the session at the site factory
// (synchronously in-process, through the session's failure on TCP), and
// the deployment keeps serving.
func TestOpenRejectsIllFittingPlan(t *testing.T) {
	ctx := context.Background()
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, 67)
	q, err := ParsePattern(dict, "node a l0\nnode b l1\nedge a b\nedge b a")
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]*plan.Plan{
		"duplicate-node": {Nodes: []uint16{0, 0}, Edges: []uint16{0, 1}},
		"short-edges":    {Nodes: []uint16{0, 1}, Edges: []uint16{0}},
		"edge-range":     {Nodes: []uint16{0, 1}, Edges: []uint16{0, 2}},
	}
	for _, mode := range confModes(t)[:2] { // inproc, tcp
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			part, err := PartitionRandom(g, 4, 67)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := Deploy(part, mode.extra(t)...)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			for name, pl := range bad {
				spec := cluster.SessionSpec{
					Algo:   dgpm.Algo,
					Query:  pattern.EncodeBinary(q.p),
					Config: dgpm.EncodeConfig(dgpm.DefaultConfig()),
					Plan:   pl.Encode(),
				}
				_, _, err := dep.c.Evaluate(ctx, spec, &cluster.Collector{}, func(s *cluster.Session) error {
					return s.Phase(ctx, &wire.Control{Op: dgpm.OpStart})
				})
				if err == nil || !strings.Contains(err.Error(), "plan:") {
					t.Fatalf("%s: ill-fitting plan: err = %v, want the site's plan refusal", name, err)
				}
			}
			res, err := dep.Query(ctx, q)
			if err != nil {
				t.Fatalf("query after the refusals: %v", err)
			}
			if !res.Match.Equal(Simulate(q, g)) {
				t.Fatal("query after the refusals diverges from Simulate")
			}
		})
	}
}

// TestWatchSharedAcrossRenamedPatterns: Watches whose patterns are equal modulo node renaming share one
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
	// The reference evaluates the same pattern with a real maintenance
	// session and reaches the same ∅.
	ref, err := dgpm.NewStanding(ctx, dep.c, part.fr, []*pattern.Pattern{q.p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if ref.LastStats().ControlBytes == 0 {
		t.Fatal("reference standing query opened no session")
	}
	if ref.Current(0).Ok() {
		t.Fatal("reference absent-label standing query must still serve ∅")
	}
}

// TestSharedMaintenanceCheaperThanIndependent: 4 equivalent standing
// queries share one session, so an insertion batch (full re-evaluation)
// bills roughly a quarter of what 4 independent sessions — one
// dgpm.NewStanding per pattern, the reference — pay to evaluate the
// same post-batch graph. The acceptance bar is ≥1.5×; the structural
// expectation is ~4×, so assert ≥2×.
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
	part, err := PartitionRandom(g, 4, 81)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ws := make([]*Maintained, len(qs))
	for i, q := range qs {
		if ws[i], err = dep.Watch(ctx, q); err != nil {
			t.Fatal(err)
		}
		if ws[i].shard != ws[0].shard || ws[i].block != ws[0].block {
			t.Fatal("equivalent watches must share one block")
		}
	}

	// A batch with insertions, so the shared session re-evaluates.
	ops := GenUpdateStream(part.CurrentGraph(), 10, 30, 82)
	st, err := dep.Apply(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	// The independent arm: one private session per pattern, each running
	// the same full evaluation of the post-batch graph (Reevaluate is
	// NewStanding's evaluation).
	var solo int64
	for i, q := range qs {
		want := Simulate(q, part.CurrentGraph())
		if !ws[i].Current().Equal(want) {
			t.Fatalf("shared watch %d diverges from oracle", i)
		}
		ref, err := dgpm.NewStanding(ctx, dep.c, part.fr, []*pattern.Pattern{q.p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if !(&Match{m: ref.Current(0)}).Equal(want) {
			t.Fatalf("independent watch %d diverges from oracle", i)
		}
		solo += ref.LastStats().DataBytes
	}
	shared := st.Maintenance.DataBytes
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
// and the Empty verdict.
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
	for _, want := range []string{"seed order", "edge order", "canonical key:"} {
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

	// Errors: nil pattern, closed deployment.
	if _, err := dep.Explain(nil); err == nil {
		t.Fatal("Explain(nil) must fail")
	}
	dep.Close()
	if _, err := dep.Explain(q); err == nil {
		t.Fatal("Explain on a closed deployment must fail")
	}
}
