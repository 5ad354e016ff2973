// Benchmarks, one per evaluation figure of the paper (Fig. 6(a)–6(p)).
//
// Each BenchmarkFig* exercises the same algorithms, workload family and
// swept parameter as its figure, at a reduced size so `go test -bench=.`
// stays tractable; the full sweeps with the paper's axes are produced by
// `go run ./cmd/benchfig -all`. PT corresponds to ns/op; DS is reported
// via the custom metrics data_KB/op and msgs/op.
//
// Matching the paper's methodology, every figure benchmark deploys its
// fragmentation ONCE (with the EC2-like link model, so ns/op reflects
// network-inclusive response time) and serves all measured queries from
// the resident fragments; BenchmarkDeployAmortization quantifies what
// that residency is worth against a per-query deploy.
package dgs

import (
	"context"
	"fmt"
	"testing"
)

const (
	benchWebNV = 20_000
	benchWebNE = 100_000
	benchCitNV = 10_000
	benchCitNE = 22_000
	benchSynNV = 30_000
	benchSynNE = 120_000
)

// benchDeploy makes the partition resident with the EC2-like link model
// for the benchmark's lifetime.
func benchDeploy(b *testing.B, part *Partition, opts ...DeployOption) *Deployment {
	b.Helper()
	dep, err := Deploy(part, append([]DeployOption{WithNetwork(EC2Network())}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dep.Close() })
	return dep
}

// benchQuery measures one (algorithm, query) pair against a resident
// deployment.
func benchQuery(b *testing.B, dep *Deployment, q *Pattern, opts ...QueryOption) {
	b.Helper()
	var bytes, msgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dep.Query(context.Background(), q, opts...)
		if err != nil {
			b.Fatal(err)
		}
		bytes += res.Stats.DataBytes
		msgs += res.Stats.DataMsgs
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/1024, "data_KB/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

func webWorld(b *testing.B, nf int, vf float64) (*Dict, *Graph, *Partition) {
	b.Helper()
	dict := NewDict()
	g := GenWeb(dict, benchWebNV, benchWebNE, 1)
	part, err := PartitionTargetRatio(g, nf, ByVf, vf, 1)
	if err != nil {
		b.Fatal(err)
	}
	return dict, g, part
}

func citWorld(b *testing.B, nf int, vf float64) (*Dict, *Graph, *Partition) {
	b.Helper()
	dict := NewDict()
	g := GenCitation(dict, benchCitNV, benchCitNE, 1)
	part, err := PartitionTargetRatio(g, nf, ByVf, vf, 1)
	if err != nil {
		b.Fatal(err)
	}
	return dict, g, part
}

// exp1Algos mirrors Fig. 6(a)-(f): dGPM and the baselines on cyclic
// queries over the web graph.
var exp1Algos = []Algorithm{AlgoDGPM, AlgoDisHHK, AlgoDGPMNoOpt, AlgoDMes, AlgoMatch}

// BenchmarkFig6ab — PT/DS vs |F| (Fig. 6(a), 6(b)).
func BenchmarkFig6ab(b *testing.B) {
	for _, nf := range []int{4, 8, 16} {
		dict, _, part := webWorld(b, nf, 0.25)
		dep := benchDeploy(b, part)
		q := GenCyclicPatternOver(dict, 5, 10, 4, 100)
		for _, algo := range exp1Algos {
			b.Run(fmt.Sprintf("F=%d/%s", nf, algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// BenchmarkFig6cd — PT/DS vs |Q| (Fig. 6(c), 6(d)).
func BenchmarkFig6cd(b *testing.B) {
	dict, _, part := webWorld(b, 8, 0.25)
	dep := benchDeploy(b, part)
	for _, sz := range [][2]int{{4, 8}, {6, 12}, {8, 16}} {
		q := GenCyclicPatternOver(dict, sz[0], sz[1], 4, 100)
		for _, algo := range exp1Algos {
			b.Run(fmt.Sprintf("Q=(%d,%d)/%s", sz[0], sz[1], algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// BenchmarkFig6ef — PT/DS vs |Vf| (Fig. 6(e), 6(f)).
func BenchmarkFig6ef(b *testing.B) {
	dict := NewDict()
	g := GenWeb(dict, benchWebNV, benchWebNE, 1)
	q := GenCyclicPatternOver(dict, 5, 10, 4, 100)
	for _, vf := range []float64{0.25, 0.40, 0.50} {
		part, err := PartitionTargetRatio(g, 8, ByVf, vf, 1)
		if err != nil {
			b.Fatal(err)
		}
		dep := benchDeploy(b, part)
		for _, algo := range exp1Algos {
			b.Run(fmt.Sprintf("Vf=%.2f/%s", vf, algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// exp2Algos mirrors Fig. 6(g)-(l): dGPMd and baselines on the citation DAG.
var exp2Algos = []Algorithm{AlgoDGPMd, AlgoDisHHK, AlgoDMes, AlgoMatch}

// BenchmarkFig6gh — PT/DS vs query diameter d (Fig. 6(g), 6(h)).
func BenchmarkFig6gh(b *testing.B) {
	dict, _, part := citWorld(b, 8, 0.25)
	dep := benchDeploy(b, part, WithQueryDefaults(WithGraphIsDAG()))
	for _, d := range []int{2, 4, 8} {
		q, err := GenDAGPattern(dict, 9, 13, d, 200)
		if err != nil {
			b.Fatal(err)
		}
		for _, algo := range exp2Algos {
			b.Run(fmt.Sprintf("d=%d/%s", d, algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// BenchmarkFig6ij — PT/DS vs |F| on the DAG (Fig. 6(i), 6(j)).
func BenchmarkFig6ij(b *testing.B) {
	dict := NewDict()
	g := GenCitation(dict, benchCitNV, benchCitNE, 1)
	q, err := GenDAGPattern(dict, 9, 13, 4, 200)
	if err != nil {
		b.Fatal(err)
	}
	for _, nf := range []int{4, 8, 16} {
		part, perr := PartitionTargetRatio(g, nf, ByVf, 0.25, 1)
		if perr != nil {
			b.Fatal(perr)
		}
		dep := benchDeploy(b, part, WithQueryDefaults(WithGraphIsDAG()))
		for _, algo := range exp2Algos {
			b.Run(fmt.Sprintf("F=%d/%s", nf, algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// BenchmarkFig6kl — PT/DS vs |Vf| on the DAG (Fig. 6(k), 6(l)).
func BenchmarkFig6kl(b *testing.B) {
	dict := NewDict()
	g := GenCitation(dict, benchCitNV, benchCitNE, 1)
	q, err := GenDAGPattern(dict, 9, 13, 4, 200)
	if err != nil {
		b.Fatal(err)
	}
	for _, vf := range []float64{0.25, 0.50} {
		part, perr := PartitionTargetRatio(g, 8, ByVf, vf, 1)
		if perr != nil {
			b.Fatal(perr)
		}
		dep := benchDeploy(b, part, WithQueryDefaults(WithGraphIsDAG()))
		for _, algo := range exp2Algos {
			b.Run(fmt.Sprintf("Vf=%.2f/%s", vf, algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// exp3Algos mirrors Fig. 6(m)-(p): synthetic graphs, Match omitted as in
// the paper ("not capable to cope with large |G|").
var exp3Algos = []Algorithm{AlgoDGPM, AlgoDisHHK, AlgoDGPMNoOpt, AlgoDMes}

// BenchmarkFig6mn — PT/DS vs |F| on synthetic graphs (Fig. 6(m), 6(n)).
func BenchmarkFig6mn(b *testing.B) {
	dict := NewDict()
	g := GenSynthetic(dict, benchSynNV, benchSynNE, 1)
	q := GenCyclicPatternOver(dict, 5, 10, 4, 300)
	for _, nf := range []int{8, 16} {
		part, err := PartitionTargetRatio(g, nf, ByVf, 0.20, 1)
		if err != nil {
			b.Fatal(err)
		}
		dep := benchDeploy(b, part)
		for _, algo := range exp3Algos {
			b.Run(fmt.Sprintf("F=%d/%s", nf, algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// BenchmarkFig6op — PT/DS vs |G| on synthetic graphs (Fig. 6(o), 6(p)).
func BenchmarkFig6op(b *testing.B) {
	dict := NewDict()
	q := GenCyclicPatternOver(dict, 5, 10, 4, 300)
	for _, mult := range []int{1, 2, 4} {
		g := GenSynthetic(dict, mult*benchSynNV/2, mult*benchSynNE/2, int64(mult))
		part, err := PartitionTargetRatio(g, 8, ByVf, 0.20, 1)
		if err != nil {
			b.Fatal(err)
		}
		dep := benchDeploy(b, part)
		for _, algo := range exp3Algos {
			b.Run(fmt.Sprintf("G=(%dK,%dK)/%s", g.NumNodes()/1000, g.NumEdges()/1000, algo), func(b *testing.B) {
				benchQuery(b, dep, q, WithAlgorithm(algo))
			})
		}
	}
}

// BenchmarkCentralized — the HHK kernel itself (the |G|-dependent cost
// every partition-bounded algorithm avoids paying centrally).
func BenchmarkCentralized(b *testing.B) {
	dict := NewDict()
	g := GenWeb(dict, benchWebNV, benchWebNE, 1)
	q := GenCyclicPatternOver(dict, 5, 10, 4, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(q, g)
	}
}

// BenchmarkTreeDGPMt — dGPMt's two-round protocol (Corollary 4).
func BenchmarkTreeDGPMt(b *testing.B) {
	dict := NewDict()
	g := GenTree(dict, 50_000, 1)
	q := GenTreePattern(dict, 4, 9)
	part, err := PartitionTree(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	dep := benchDeploy(b, part)
	benchQuery(b, dep, q, WithAlgorithm(AlgoDGPMt))
}

// BenchmarkImpossibilityChain — the Fig-2 gadget: cost grows with |F|
// even though |Q| and |Fm| are constant (Theorem 1's empirical face).
func BenchmarkImpossibilityChain(b *testing.B) {
	dict := NewDict()
	q := ChainQuery(dict)
	for _, n := range []int{16, 64, 256} {
		g := GenChain(dict, n, false)
		part, err := PartitionChain(g, n)
		if err != nil {
			b.Fatal(err)
		}
		dep := benchDeploy(b, part)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchQuery(b, dep, q, WithAlgorithm(AlgoDGPM))
		})
	}
}

// BenchmarkIncrementalVsRecompute — the point of mutable deployments:
// on a 256-site synthetic world absorbing a 1% edge-deletion stream in
// batches, maintaining a Watched query incrementally (falsification
// propagation over the affected area only) versus re-running the query
// from scratch after each batch. Both arms pay the same fragment-update
// distribution; the reported data_KB/op and ms/batch isolate the
// maintenance-vs-recompute delta — incremental must ship fewer bytes
// (DS) and take less time (PT).
func BenchmarkIncrementalVsRecompute(b *testing.B) {
	const (
		nv, ne  = 8_000, 32_000
		sites   = 256
		batches = 8
	)
	type world struct {
		dep     *Deployment
		part    *Partition
		q       *Pattern
		batches [][]EdgeOp
	}
	build := func(b *testing.B, seed int64) *world {
		dict := NewDict()
		g := GenSynthetic(dict, nv, ne, seed)
		part, err := PartitionRandom(g, sites, seed)
		if err != nil {
			b.Fatal(err)
		}
		dep, err := Deploy(part, WithNetwork(EC2Network()))
		if err != nil {
			b.Fatal(err)
		}
		q := GenCyclicPatternOver(dict, 5, 10, 4, seed+1)
		nDel := ne / 100
		stream := GenUpdateStream(part.CurrentGraph(), nDel, 0, seed+2)
		return &world{dep: dep, part: part, q: q, batches: BatchOps(stream, nDel/batches+1)}
	}
	ctx := context.Background()

	b.Run("incremental", func(b *testing.B) {
		var bytes int64
		var wall int64
		n := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := build(b, int64(i))
			m, err := w.dep.Watch(ctx, w.q)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, batch := range w.batches {
				if _, err := w.dep.Apply(ctx, batch); err != nil {
					b.Fatal(err)
				}
				st := m.LastStats()
				bytes += st.DataBytes
				wall += int64(st.Wall)
				n++
			}
			b.StopTimer()
			w.dep.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(bytes)/float64(n)/1024, "data_KB/batch")
		b.ReportMetric(float64(wall)/float64(n)/1e6, "ms/batch")
	})
	b.Run("recompute", func(b *testing.B) {
		var bytes int64
		var wall int64
		n := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := build(b, int64(i))
			b.StartTimer()
			for _, batch := range w.batches {
				if _, err := w.dep.Apply(ctx, batch); err != nil {
					b.Fatal(err)
				}
				res, err := w.dep.Query(ctx, w.q)
				if err != nil {
					b.Fatal(err)
				}
				bytes += res.Stats.DataBytes
				wall += int64(res.Stats.Wall)
				n++
			}
			b.StopTimer()
			w.dep.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(bytes)/float64(n)/1024, "data_KB/batch")
		b.ReportMetric(float64(wall)/float64(n)/1e6, "ms/batch")
	})
}

// BenchmarkDeployAmortization — the point of the persistent Deployment
// API: per-call deploy (substrate up, one query, substrate down)
// versus serving queries from resident fragments. Both
// arms run the identical dGPM protocol on a free network, so the delta
// is exactly the per-query deployment overhead that residency
// amortizes. Two regimes: an 8-site synthetic world where protocol work
// dominates, and a 256-site chain world (the Fig-2 gadget's shape)
// where substrate startup is a third of the per-call cost.
func BenchmarkDeployAmortization(b *testing.B) {
	type world struct {
		name string
		q    *Pattern
		part *Partition
	}
	var worlds []world
	{
		dict := NewDict()
		g := GenSynthetic(dict, 5_000, 20_000, 42)
		q := GenCyclicPatternOver(dict, 5, 10, 4, 100)
		part, err := PartitionTargetRatio(g, 8, ByVf, 0.25, 1)
		if err != nil {
			b.Fatal(err)
		}
		worlds = append(worlds, world{"synthetic-F=8", q, part})
	}
	{
		dict := NewDict()
		q := ChainQuery(dict)
		g := GenChain(dict, 256, true)
		part, err := PartitionChain(g, 256)
		if err != nil {
			b.Fatal(err)
		}
		worlds = append(worlds, world{"chain-F=256", q, part})
	}
	for _, w := range worlds {
		b.Run(w.name+"/RunDeployPerQuery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := queryOnce(w.part, w.q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/QueryResidentDeployment", func(b *testing.B) {
			dep, err := Deploy(w.part)
			if err != nil {
				b.Fatal(err)
			}
			defer dep.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dep.Query(context.Background(), w.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerArms — the planner's one-shot arms head to head: the
// same cyclic queries on a planner-on and a planner-off deployment of
// one 64-site web fragmentation, free network (by confluence the plan
// cannot change what ships, so the delta is pure site compute — the
// label-bucketed construction and selectivity-ordered seeding the
// planner enables). Companion of benchfig -group planner.
func BenchmarkPlannerArms(b *testing.B) {
	dict := NewDict()
	g := GenWeb(dict, benchWebNV, benchWebNE, 1)
	part, err := PartitionTargetRatio(g, 64, ByVf, 0.25, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := GenCyclicPatternOver(dict, 6, 8, 4, 100)
	for _, arm := range []struct {
		name string
		opts []DeployOption
	}{
		{"planned", nil},
		{"unplanned", []DeployOption{WithPlannerDisabled()}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			dep, err := Deploy(part, arm.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer dep.Close()
			benchQuery(b, dep, q)
		})
	}
}
