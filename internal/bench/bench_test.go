package bench

// The sweeps are the paper's, at 1/20 of the repository's default sizes
// (themselves scaled from §6's datasets: Yahoo 3M/15M → 60K/300K,
// Citation 1.4M/3M → 28K/60K, synthetic 30M/120M → 120K/480K), two
// queries per point, seed 3. Every deployment is in-process with no
// emulated link cost; DS is Stats.DataBytes summed over a point's
// queries. The other algorithms' counts are exact; dGPM's message count
// — and with it 5 B of header per message — depends on how many
// falsifications a site found queued per wakeup, so a claim about
// dGPM's own curve is asserted on its falsified pairs alone
// (DataBytes − 5·DataMsgs), and the orderings keep margins far wider
// than that header share.

import (
	"context"
	"fmt"
	"testing"

	"dgs"
)

const (
	scale   = 0.05
	seed    = 3
	queries = 2

	webNV = 60_000
	webNE = 300_000
	citNV = 28_000
	citNE = 60_000
	synNV = 120_000
	synNE = 480_000
)

func scaled(n int) int { return max(int(float64(n)*scale), 16) }

// exp1Queries are Exp-1's cyclic patterns of |Q| = (nv, ne), over the
// four most frequent labels: the paper's queries are conditions on
// common attributes, i.e. selective patterns with non-trivial candidate
// sets.
func exp1Queries(dict *dgs.Dict, nv, ne int) []*dgs.Pattern {
	qs := make([]*dgs.Pattern, queries)
	for i := range qs {
		qs[i] = dgs.GenCyclicPatternOver(dict, nv, ne, 4, seed+int64(100+i))
	}
	return qs
}

// exp2Queries are Exp-2's DAG patterns of |Q| = (9, 13) and diameter diam.
func exp2Queries(t *testing.T, dict *dgs.Dict, diam int) []*dgs.Pattern {
	t.Helper()
	qs := make([]*dgs.Pattern, queries)
	for i := range qs {
		q, err := dgs.GenDAGPattern(dict, 9, 13, diam, seed+int64(200+i))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

func partition(t *testing.T, g *dgs.Graph, nf int, by dgs.Metric, ratio float64) *dgs.Partition {
	t.Helper()
	part, err := dgs.PartitionWith(g, "targetratio", nf, dgs.WithPartitionMetric(by), dgs.WithPartitionTarget(ratio), dgs.WithPartitionSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// point is one x-position of a DS panel: each algorithm's total data
// shipment and, for dGPM, its falsified pairs' bytes.
type point struct {
	x     string
	ds    map[dgs.Algorithm]int64
	pairs map[dgs.Algorithm]int64
}

// measure deploys part once and runs every query under every algorithm —
// the paper's fragment-once, query-many methodology — checking each
// answer against dgs.Simulate on g.
func measure(t *testing.T, x string, g *dgs.Graph, part *dgs.Partition, qs []*dgs.Pattern, algos []dgs.Algorithm, qopts ...dgs.QueryOption) point {
	t.Helper()
	dep, err := dgs.Deploy(part, dgs.WithQueryDefaults(qopts...))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	p := point{x: x, ds: make(map[dgs.Algorithm]int64), pairs: make(map[dgs.Algorithm]int64)}
	for _, q := range qs {
		want := dgs.Simulate(q, g)
		for _, a := range algos {
			res, err := dep.Query(context.Background(), q, dgs.WithAlgorithm(a))
			if err != nil {
				t.Fatalf("%s, %s: %v", x, a, err)
			}
			if !res.Match.Equal(want) {
				t.Fatalf("%s, %s: diverges from Simulate", x, a)
			}
			p.ds[a] += res.Stats.DataBytes
			p.pairs[a] += res.Stats.DataBytes - 5*res.Stats.DataMsgs
		}
	}
	return p
}

// ordered asserts DS(algos[0]) < DS(algos[1]) < … at every point.
func ordered(t *testing.T, panel string, pts []point, algos ...dgs.Algorithm) {
	t.Helper()
	for _, p := range pts {
		t.Logf("%s %s: %v", panel, p.x, p.ds)
		for i := 1; i < len(algos); i++ {
			if lo, hi := p.ds[algos[i-1]], p.ds[algos[i]]; lo >= hi {
				t.Errorf("%s at %s: DS(%s) = %d B, not below DS(%s) = %d B", panel, p.x, algos[i-1], lo, algos[i], hi)
			}
		}
	}
}

// rising asserts that v strictly rises from point to point.
func rising(t *testing.T, panel, what string, pts []point, v func(point) int64) {
	t.Helper()
	for i := 1; i < len(pts); i++ {
		if a, b := v(pts[i-1]), v(pts[i]); a >= b {
			t.Errorf("%s: %s does not rise from %s to %s: %d → %d B", panel, what, pts[i-1].x, pts[i].x, a, b)
		}
	}
}

var exp1Algos = []dgs.Algorithm{dgs.AlgoDGPM, dgs.AlgoDisHHK, dgs.AlgoDMes}

// TestExp1VaryFShape is Exp-1 on the web graph: Fig. 6(b) varies |F|,
// 6(d) |Q| and 6(f) |Vf|. DS(dGPM) < DS(disHHK) < DS(dMes) at every
// point; as |Vf| grows, dGPM's and dMes's DS rise while disHHK's —
// every fragment's candidates, whatever the cut — stays put.
func TestExp1VaryFShape(t *testing.T) {
	dict := dgs.NewDict()
	g := dgs.GenWeb(dict, scaled(webNV), scaled(webNE), seed)
	qs := exp1Queries(dict, 5, 10)

	var pts []point
	for _, nf := range []int{4, 8, 12, 16, 20} {
		pts = append(pts, measure(t, fmt.Sprint(nf), g, partition(t, g, nf, dgs.ByVf, 0.25), qs, exp1Algos))
	}
	ordered(t, "6(b)", pts, exp1Algos...)

	pts = nil
	part := partition(t, g, 8, dgs.ByVf, 0.25)
	for _, sz := range [][2]int{{4, 8}, {5, 10}, {6, 12}, {7, 14}, {8, 16}} {
		pts = append(pts, measure(t, fmt.Sprint(sz), g, part, exp1Queries(dict, sz[0], sz[1]), exp1Algos))
	}
	ordered(t, "6(d)", pts, exp1Algos...)

	pts = nil
	for _, ratio := range []float64{0.25, 0.30, 0.35, 0.40, 0.45, 0.50} {
		pts = append(pts, measure(t, fmt.Sprint(ratio), g, partition(t, g, 8, dgs.ByVf, ratio), qs, exp1Algos))
	}
	ordered(t, "6(f)", pts, exp1Algos...)
	rising(t, "6(f)", "dGPM's falsified pairs", pts, func(p point) int64 { return p.pairs[dgs.AlgoDGPM] })
	rising(t, "6(f)", "dMes's DS", pts, func(p point) int64 { return p.ds[dgs.AlgoDMes] })
	for _, p := range pts[1:] {
		if got, want := p.ds[dgs.AlgoDisHHK], pts[0].ds[dgs.AlgoDisHHK]; got != want {
			t.Errorf("6(f): disHHK's DS moved with |Vf|: %d B at %s, %d B at %s", got, p.x, want, pts[0].x)
		}
	}
}

var exp2Algos = []dgs.Algorithm{dgs.AlgoDGPMd, dgs.AlgoDisHHK, dgs.AlgoDMes}

// TestExp2VaryDShape is Exp-2, dGPMd on the citation DAG: Fig. 6(h)
// varies the query diameter d, 6(j) |F| and 6(l) |Vf|. DS(dGPMd) <
// DS(disHHK) < DS(dMes) at every point.
func TestExp2VaryDShape(t *testing.T) {
	dict := dgs.NewDict()
	g := dgs.GenCitation(dict, scaled(citNV), scaled(citNE), seed)
	dag := dgs.WithGraphIsDAG()

	var pts []point
	part := partition(t, g, 8, dgs.ByEf, 0.25)
	for d := 2; d <= 8; d++ {
		pts = append(pts, measure(t, fmt.Sprint(d), g, part, exp2Queries(t, dict, d), exp2Algos, dag))
	}
	ordered(t, "6(h)", pts, exp2Algos...)

	pts = nil
	qs := exp2Queries(t, dict, 4)
	for _, nf := range []int{4, 8, 12, 16, 20} {
		pts = append(pts, measure(t, fmt.Sprint(nf), g, partition(t, g, nf, dgs.ByVf, 0.25), qs, exp2Algos, dag))
	}
	ordered(t, "6(j)", pts, exp2Algos...)

	pts = nil
	for _, ratio := range []float64{0.25, 0.30, 0.35, 0.40, 0.45, 0.50} {
		pts = append(pts, measure(t, fmt.Sprint(ratio), g, partition(t, g, 8, dgs.ByVf, ratio), qs, exp2Algos, dag))
	}
	ordered(t, "6(l)", pts, exp2Algos...)
}

// TestExp3VaryGRuns is Exp-3 on synthetic graphs: Fig. 6(n) varies |F|
// and 6(p) |G|. DS(dGPM) < DS(disHHK) < DS(dMes) at every point, and on
// 6(p) all three rise with |G|.
func TestExp3VaryGRuns(t *testing.T) {
	dict := dgs.NewDict()
	g := dgs.GenSynthetic(dict, scaled(synNV), scaled(synNE), seed)
	qs := exp1Queries(dict, 5, 10)

	var pts []point
	for _, nf := range []int{8, 12, 16, 20} {
		pts = append(pts, measure(t, fmt.Sprint(nf), g, partition(t, g, nf, dgs.ByVf, 0.20), qs, exp1Algos))
	}
	ordered(t, "6(n)", pts, exp1Algos...)

	pts = nil
	for _, mult := range []int{2, 4, 6, 8} {
		nv, ne := scaled(mult*40_000), scaled(mult*160_000)
		g := dgs.GenSynthetic(dict, nv, ne, seed+int64(mult))
		pts = append(pts, measure(t, fmt.Sprintf("(%d,%d)", nv, ne), g, partition(t, g, 20, dgs.ByVf, 0.20), qs, exp1Algos))
	}
	ordered(t, "6(p)", pts, exp1Algos...)
	rising(t, "6(p)", "dGPM's falsified pairs", pts, func(p point) int64 { return p.pairs[dgs.AlgoDGPM] })
	rising(t, "6(p)", "disHHK's DS", pts, func(p point) int64 { return p.ds[dgs.AlgoDisHHK] })
	rising(t, "6(p)", "dMes's DS", pts, func(p point) int64 { return p.ds[dgs.AlgoDMes] })
}

// TestAblationGroup is §4.2's ablation on the web graph: incremental
// local evaluation changes how often a site re-evaluates, never what it
// ships, so dGPM with push off and dGPMNOpt (neither optimization) ship
// the same falsified pairs at every |F|. The paper's "dGPM is 20.3×
// faster than dGPMNOpt" is a PT claim and is not asserted.
func TestAblationGroup(t *testing.T) {
	ctx := context.Background()
	dict := dgs.NewDict()
	g := dgs.GenWeb(dict, scaled(webNV), scaled(webNE), seed)
	for _, nf := range []int{4, 8, 16} {
		dep, err := dgs.Deploy(partition(t, g, nf, dgs.ByVf, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range exp1Queries(dict, 5, 10) {
			pairs := func(opts ...dgs.QueryOption) int64 {
				res, err := dep.Query(ctx, q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return res.Stats.DataBytes - 5*res.Stats.DataMsgs
			}
			noPush := pairs(dgs.WithAlgorithm(dgs.AlgoDGPM), dgs.WithPushDisabled())
			nOpt := pairs(dgs.WithAlgorithm(dgs.AlgoDGPMNoOpt))
			if noPush != nOpt || noPush == 0 {
				t.Errorf("|F|=%d, query %d: dGPM-nopush shipped %d B of pairs, dGPMNOpt %d B", nf, i, noPush, nOpt)
			}
		}
		dep.Close()
	}
}

// TestUpdatesGroupShape is incremental maintenance under a 1% edge
// deletion stream (§7's direction, after [13]): per batch, the standing
// query's refinement ships less than re-answering the query from
// scratch, and its relation equals the recomputed one.
func TestUpdatesGroupShape(t *testing.T) {
	ctx := context.Background()
	dict := dgs.NewDict()
	g := dgs.GenSynthetic(dict, scaled(synNV/2), scaled(synNE/2), seed)
	part := partition(t, g, 8, dgs.ByVf, 0.25)
	dep, err := dgs.Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	q := dgs.GenCyclicPatternOver(dict, 5, 10, 4, seed+100)
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	nDel := max(g.NumEdges()/100, 5)
	batches := dgs.BatchOps(dgs.GenUpdateStream(part.CurrentGraph(), nDel, 0, seed+5), nDel/5+1)
	for bi, batch := range batches {
		if _, err := dep.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		res, err := dep.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Match.Equal(w.Current()) {
			t.Fatalf("batch %d: the maintained relation diverged from the recomputed one", bi)
		}
		inc, rec := w.LastStats().DataBytes, res.Stats.DataBytes
		t.Logf("batch %d: maintained %d B, recomputed %d B", bi, inc, rec)
		if inc >= rec {
			t.Errorf("batch %d: maintenance shipped %d B, not below recomputation's %d B", bi, inc, rec)
		}
	}
}

// TestPartitionSmoke is partitioning quality as the paper's bounds see
// it: every cost is parameterized by the cut, so LDG, partitioning the
// web graph under the same ±10% balance cap as the random fixture, must
// cut fewer edges, and dGPM and dMes must ship less on its fragments.
func TestPartitionSmoke(t *testing.T) {
	dict := dgs.NewDict()
	g := dgs.GenWeb(dict, scaled(webNV/4), scaled(webNE/4), seed)
	const nf = 12 // the 256-site sweep, scaled
	qs := make([]*dgs.Pattern, queries)
	for i := range qs {
		qs[i] = dgs.GenCyclicPatternOver(dict, 5, 10, 4, seed+int64(i)*17)
	}
	algos := []dgs.Algorithm{dgs.AlgoDGPM, dgs.AlgoDMes}
	pts := make(map[string]point)
	ef := make(map[string]int)
	for _, strat := range []string{"random", "ldg"} {
		part, err := dgs.PartitionWith(g, strat, nf, dgs.WithPartitionSeed(seed), dgs.WithBalanceSlack(0.10))
		if err != nil {
			t.Fatal(err)
		}
		// ⌈1.1·|V|/|F|⌉: the largest fragment the slack admits.
		limit := (g.NumNodes()*11 + 10*nf - 1) / (10 * nf)
		if biggest := part.FragmentSizes()[0]; biggest > limit {
			t.Fatalf("%s: largest fragment %d outside the balance cap %d", strat, biggest, limit)
		}
		ef[strat] = part.Ef()
		pts[strat] = measure(t, strat, g, part, qs, algos)
		t.Logf("%s: |Ef| = %d, DS %v", strat, part.Ef(), pts[strat].ds)
	}
	if ef["ldg"] >= ef["random"] {
		t.Fatalf("LDG cut %d edges, not fewer than random's %d", ef["ldg"], ef["random"])
	}
	for _, a := range algos {
		if l, r := pts["ldg"].ds[a], pts["random"].ds[a]; l >= r {
			t.Errorf("%s shipped %d B on LDG's fragments, not below %d B on random's", a, l, r)
		}
	}
}
