// Benchmarks with no recorded twin elsewhere: the centralized HHK
// kernel, dGPMt's two-round tree protocol, the Theorem 1 chain gadget,
// what a resident Deployment amortizes, warm dGPMd against warm dGPM
// on the same DAG patterns, and dMes's message storm over two loopback
// daemons. The paper's Fig. 6 DS
// orderings are count-based tests in internal/bench (DESIGN.md §6), and
// incremental-vs-recompute maintenance is the benchmark/ module's
// maintain-8 workload; they are not repeated here. ns/op is in-process
// time with no emulated link cost; DS is reported via the custom metrics
// data_KB/op and msgs/op.
//
// The deployed benchmarks make their fragmentation resident ONCE and
// serve all measured queries from it; BenchmarkDeployAmortization
// quantifies what that residency is worth against a per-query deploy.
package dgs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

const (
	benchWebNV = 20_000
	benchWebNE = 100_000
)

// benchDeploy makes the partition resident for the benchmark's
// lifetime.
func benchDeploy(b *testing.B, part *Partition) *Deployment {
	b.Helper()
	dep, err := Deploy(part)
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
	part, err := PartitionWith(g, "tree", 8)
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
		part, err := PartitionWith(g, "chain", n)
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
		part, err := PartitionWith(g, "targetratio", 8, WithPartitionTarget(0.25), WithPartitionSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		worlds = append(worlds, world{"synthetic-F=8", q, part})
	}
	{
		dict := NewDict()
		q := ChainQuery(dict)
		g := GenChain(dict, 256, true)
		part, err := PartitionWith(g, "chain", 256)
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

// BenchmarkWarmSessionDAG is a warm query of dGPMd and of dGPM on the
// same DAG patterns, through an in-process deployment of `local-8`'s
// graph (web, 300k nodes and 1.5M edges, 8 block fragments): eight DAG
// patterns, round-robin, each already run once per algorithm so that
// every site restores its engine from prepared state. The two algorithms
// share the site and its prepared state, so their ms/query differ by the
// release alone: rank waves against the lMsg exchange.
func BenchmarkWarmSessionDAG(b *testing.B) {
	ctx := context.Background()
	dict := NewDict()
	g := GenWeb(dict, 300_000, 1_500_000, 1)
	part, err := PartitionWith(g, "blocks", 8, WithPartitionSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	dep := benchDeploy(b, part)
	qs := make([]*Pattern, 8)
	for i := range qs {
		if qs[i], err = GenDAGPattern(dict, 4+i%2, 5+i%2, 3, int64(500+i)); err != nil {
			b.Fatal(err)
		}
	}
	algos := []Algorithm{AlgoDGPMd, AlgoDGPM}
	for _, q := range qs {
		for _, algo := range algos {
			if _, err := dep.Query(ctx, q, WithAlgorithm(algo)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, algo := range algos {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dep.Query(ctx, qs[i%len(qs)], WithAlgorithm(algo)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/query")
		})
	}
}

// BenchmarkRemoteStorm is `msgstorm-64-tcp`'s shape in-tree: dMes on a
// GenWeb graph of 15k nodes and 75k edges, `ldg` over 64 sites, queried
// round-robin over the benchmark's catalog (seed 1) through two tcpnet
// daemons served in this process on loopback. Every message a daemon's
// site sends crosses the driver hub, so the ms/query and allocs/query it
// reports are the message path's: the site executor, the daemons' and
// the driver's frame writers and readers, and the hub's routing. It also
// reports cpu_ms/query (the process's user and system CPU, driver and
// daemons together, where /proc/self/stat can be read), frames/query
// (the frames the driver wrote and read, Deployment.WireFrames) and
// msgs/frame (Stats.DataMsgs, the vectors, over those frames).
func BenchmarkRemoteStorm(b *testing.B) {
	ctx := context.Background()
	dict := NewDict()
	g := GenWeb(dict, 15_000, 75_000, 1)
	part, err := PartitionWith(g, "ldg", 64, WithPartitionSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	dep, err := Deploy(part, WithRemoteSites(startSiteServers(b, 2)...))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dep.Close() })
	qs := make([]*Pattern, 8)
	for i := range qs {
		qs[i] = GenCyclicPatternOver(dict, 4+i%2, 6+i%3, 4, 301+int64(i))
	}
	if _, err := dep.Query(ctx, qs[0], WithAlgorithm(AlgoDMes)); err != nil {
		b.Fatal(err)
	}
	sent0, recv0 := dep.WireFrames()
	cpu0, cpuOK := processCPU()
	var msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dep.Query(ctx, qs[i%len(qs)], WithAlgorithm(AlgoDMes))
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Stats.DataMsgs
	}
	b.StopTimer()
	if cpu, ok := processCPU(); ok && cpuOK {
		b.ReportMetric(float64(cpu-cpu0)/float64(time.Millisecond)/float64(b.N), "cpu_ms/query")
	}
	sent, recv := dep.WireFrames()
	frames := float64(sent - sent0 + recv - recv0)
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/query")
	b.ReportMetric(frames/float64(b.N), "frames/query")
	b.ReportMetric(float64(msgs)/frames, "msgs/frame")
}

// processCPU reads this process's user plus system CPU time from
// /proc/self/stat (fields 14 and 15, in USER_HZ = 100 ticks a second);
// ok is false where there is no such file.
func processCPU() (cpu time.Duration, ok bool) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, false
	}
	// The command name (field 2) may hold spaces; fields count from its
	// closing parenthesis, which is followed by field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return time.Duration(utime+stime) * (time.Second / 100), true
}
