// Benchmarks with no recorded twin elsewhere: the centralized HHK
// kernel, dGPMt's two-round tree protocol, the Theorem 1 chain gadget
// and what a resident Deployment amortizes. The paper's Fig. 6 panels
// are regenerated (and recorded) by `go run ./cmd/benchfig -fig 6a…6p`,
// and incremental-vs-recompute maintenance by the benchmark/ module's
// maintain-8 workload; they are not repeated here. PT corresponds to
// ns/op; DS is reported via the custom metrics data_KB/op and msgs/op.
//
// The deployed benchmarks make their fragmentation resident ONCE (with
// the EC2-like link model, so ns/op reflects network-inclusive response
// time) and serve all measured queries from it;
// BenchmarkDeployAmortization quantifies what that residency is worth
// against a per-query deploy.
package dgs

import (
	"context"
	"fmt"
	"testing"
)

const (
	benchWebNV = 20_000
	benchWebNE = 100_000
)

// benchDeploy makes the partition resident with the EC2-like link model
// for the benchmark's lifetime.
func benchDeploy(b *testing.B, part *Partition) *Deployment {
	b.Helper()
	dep, err := Deploy(part, WithNetwork(EC2Network()))
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
