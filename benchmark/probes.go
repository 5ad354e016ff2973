package main

// The layer probes of the traced pass: direct timed calls into each
// layer's public functions, on the workload's own fragments, catalog and
// payload shapes. They run on the benchmark's copy of the graph and of
// the fragmentation, after the untraced phases, and feed no end-to-end
// metric.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"dgs"
	"dgs/internal/cluster"
	"dgs/internal/dgpm"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/serve"
	"dgs/internal/simulation"
	"dgs/internal/transport/tcpnet"
	"dgs/internal/wire"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeIt runs f n times and reports each call's duration in the unit
// conv yields.
func timeIt(n int, conv func(time.Duration) float64, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		f()
		out[i] = conv(time.Since(t))
	}
	return out
}

// perCall runs f n times in one timed stretch and reports nanoseconds
// and heap allocations per call — for calls too short to time singly.
func perCall(n int, f func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	el := time.Since(t)
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeLayers reports every probe that applies to the workload through
// put.
func probeLayers(ctx context.Context, in *inputs, put func(name string, v float64, n int)) error {
	s := in.spec

	// graph, partition
	loads := timeIt(3, ms, func() {
		g, err := dgs.ReadGraph(bytes.NewReader(in.dgsg1))
		if err != nil {
			panic(err) // the same bytes decoded when the inputs were generated
		}
		runtime.KeepAlive(g)
	})
	put("graph.load_ms", median(loads), len(loads))

	t := time.Now()
	part, err := partitionOf(in)
	if err != nil {
		return err
	}
	put("partition.build_ms", ms(time.Since(t)), 1)
	put("partition.vf_ratio", part.VfRatio(), 1)

	fr, err := partition.FromAssign(in.twin, part.Assignment())
	if err != nil {
		return fmt.Errorf("probe fragmentation: %w", err)
	}
	var indexMs, codecMs float64
	var fragBytes int
	for _, f := range fr.Frags {
		t := time.Now()
		enc := partition.AppendFragment(nil, f)
		c, _, err := partition.DecodeFragment(enc)
		if err != nil {
			return fmt.Errorf("fragment %d codec: %w", f.ID, err)
		}
		codecMs += ms(time.Since(t))
		fragBytes += len(enc)
		t = time.Now()
		runtime.KeepAlive(c.Index())
		indexMs += ms(time.Since(t))
	}
	put("partition.index_build_ms_sum", indexMs, len(fr.Frags))
	put("partition.fragment_codec_ms", codecMs, len(fr.Frags))
	put("partition.fragment_bytes", float64(fragBytes), len(fr.Frags))

	// pattern, plan
	const reps = 200
	var parse, canon, greedy []float64
	t = time.Now()
	stats := plan.Collect(in.twin)
	put("plan.collect_ms", ms(time.Since(t)), 1)
	for i, q := range in.twinCat {
		src := in.patterns[i]
		parse = append(parse, timeIt(reps, us, func() {
			p, err := pattern.Parse(in.twin.Dict(), src)
			if err != nil {
				panic(err) // parsed when the inputs were generated
			}
			runtime.KeepAlive(p)
		})...)
		canon = append(canon, timeIt(reps, us, func() { runtime.KeepAlive(plan.Canonicalize(q)) })...)
		greedy = append(greedy, timeIt(reps, us, func() { runtime.KeepAlive(plan.GreedyPlan(q, stats)) })...)
	}
	put("pattern.parse_us", median(parse), len(parse))
	put("plan.canonicalize_us", median(canon), len(canon))
	put("plan.greedy_us", median(greedy), len(greedy))

	// simulation
	hhk := make([]float64, len(in.twinCat))
	for i, q := range in.twinCat {
		t := time.Now()
		runtime.KeepAlive(simulation.HHK(q, in.twin))
		hhk[i] = ms(time.Since(t))
	}
	put("simulation.hhk_ms", mean(hhk), len(hhk))

	probeEngines(in, fr, stats, put)

	probeWire(s, put)
	if err := probeCluster(ctx, put); err != nil {
		return err
	}
	if s.Daemons > 0 && !s.Gateway {
		if err := probeTCPDeploy(ctx, in, part, fr, put); err != nil {
			return err
		}
	}
	if s.Gateway {
		if err := probeServe(ctx, in, part, put); err != nil {
			return err
		}
	}

	// partition.apply_batch_us mutates fr, so it runs last.
	dels := dgs.BatchOps(dgs.GenUpdateStream(in.g, 50*8, 0, in.seed+3), 8)
	var applyUs []float64
	for _, b := range dels {
		edges := make([][2]graph.NodeID, len(b))
		for i, e := range b {
			edges[i] = [2]graph.NodeID{e.V, e.W}
		}
		t := time.Now()
		if err := partition.ApplyBatchLocal(fr, edges, nil); err != nil {
			return fmt.Errorf("probe ApplyBatchLocal: %w", err)
		}
		applyUs = append(applyUs, us(time.Since(t)))
	}
	put("partition.apply_batch_us", median(applyUs), len(applyUs))
	return nil
}

// probeEngines times what a dGPM site does with each fragment for each
// catalog pattern: build the engine, extract the push subsystems, read
// the local matches. A query's sites run in parallel, so the slowest
// fragment (max) bounds latency while the cores are free; with more
// sites than cores the sum sets CPU and, through it, latency too.
func probeEngines(in *inputs, fr *partition.Fragmentation, stats *plan.Stats, put func(string, float64, int)) {
	for _, f := range fr.Frags {
		f.Index() // cached on the fragment by the first query of a deployment
	}
	theta := dgpm.DefaultConfig().Theta
	var buildMax, buildSum, pushMax, pushSum, localSum []float64
	for _, q := range in.twinCat {
		pl := plan.GreedyPlan(q, stats)
		var bMax, bSum, pMax, pSum, lSum float64
		for _, f := range fr.Frags {
			t := time.Now()
			e := dgpm.NewEnginePlanned(q, f, pl)
			b := ms(time.Since(t))
			bSum += b
			bMax = max(bMax, b)
			e.Drain()

			// The site's maybePush: extraction only where the cheap upper
			// bound on the benefit clears θ.
			if inV, virtV := e.UnevaluatedCounts(); inV > 0 && virtV > 0 && float64(virtV)/(8*float64(inV)) >= theta {
				parents := make(map[int][]graph.NodeID)
				for _, v := range f.InNodes {
					for _, w := range f.InWatchers[v] {
						parents[w] = append(parents[w], v)
					}
				}
				dests := make([]int, 0, len(parents))
				for d := range parents {
					dests = append(dests, d)
				}
				sort.Ints(dests)
				t = time.Now()
				for _, d := range dests {
					eqs, leaves := e.ExtractSubsystem(parents[d])
					runtime.KeepAlive([2]any{eqs, leaves})
				}
				p := ms(time.Since(t))
				pSum += p
				pMax = max(pMax, p)
			}

			t = time.Now()
			runtime.KeepAlive(e.LocalMatches())
			lSum += ms(time.Since(t))
		}
		buildMax, buildSum = append(buildMax, bMax), append(buildSum, bSum)
		pushMax, pushSum = append(pushMax, pMax), append(pushSum, pSum)
		localSum = append(localSum, lSum)
	}
	n := len(in.twinCat)
	put("dgpm.engine_build_ms_max", mean(buildMax), n)
	put("dgpm.engine_build_ms_sum", mean(buildSum), n)
	put("dgpm.push_extract_ms_max", mean(pushMax), n)
	put("dgpm.push_extract_ms_sum", mean(pushSum), n)
	put("dgpm.local_matches_ms_sum", mean(localSum), n)
}

// probeWire times the codec on the payload shape the workload ships:
// 4-pair falsifications under dGPM, 8-vertex bit vectors under dMes.
func probeWire(s spec, put func(string, float64, int)) {
	var p wire.Payload = &wire.Falsify{Pairs: []wire.VarRef{{U: 0, V: 11}, {U: 1, V: 12}, {U: 2, V: 13}, {U: 3, V: 14}}}
	if s.Algo == dgs.AlgoDMes {
		v := &wire.Vectors{NumQ: 5}
		for i := uint32(0); i < 8; i++ {
			v.Nodes = append(v.Nodes, 100+i)
			v.Bitsets = append(v.Bitsets, []byte{byte(i)})
		}
		p = v
	}
	const n = 200_000
	enc := wire.Encode(p)
	ns, _ := perCall(n, func() { runtime.KeepAlive(wire.Encode(p)) })
	put("wire.encode_ns_per_msg", ns, n)
	ns, allocs := perCall(n, func() {
		d, err := wire.Decode(enc)
		if err != nil {
			panic(err) // enc is what Encode just produced
		}
		runtime.KeepAlive(d)
	})
	put("wire.decode_ns_per_msg", ns, n)
	put("wire.decode_allocs_per_msg", allocs, n)

	var frame []byte
	ns, _ = perCall(n, func() {
		frame = wire.AppendFrame(frame[:0], 0x07, enc)
		_, body, err := wire.ReadFrame(bytes.NewReader(frame))
		if err != nil {
			panic(err)
		}
		runtime.KeepAlive(body)
	})
	put("wire.frame_ns", ns, n)

	b := &wire.Batch{}
	for i := 0; i < 32; i++ {
		b.Msgs = append(b.Msgs, wire.BatchMsg{From: int32(i), To: int32(i + 1), Data: enc})
	}
	var body []byte
	ns, _ = perCall(n/32, func() {
		body = b.AppendTo(append(body[:0], byte(wire.KindBatch)))
		d, err := wire.Decode(body)
		if err != nil {
			panic(err)
		}
		runtime.KeepAlive(d)
	})
	put("wire.batch_ns_per_msg", ns/32, n/32)
}

// The storm is a registered algorithm whose sites do no graph work: each
// answers a coordinator message with one message back, so a
// broadcast-and-quiesce phase costs routing, mailboxes and accounting
// (and, over tcpnet, frames and sockets) and nothing else.
const (
	stormAlgo   = "benchmark-storm"
	stormSites  = 64
	stormBursts = 16 // broadcasts per quiesce barrier
	stormPhases = 40
)

var registerStorm = sync.OnceFunc(func() {
	cluster.RegisterAlgorithm(stormAlgo,
		func(cluster.SessionSpec, *partition.Fragment, []int32) (cluster.Handler, error) {
			return cluster.HandlerFunc(func(ctx *cluster.Ctx, _ int, _ wire.Payload) {
				ctx.Send(cluster.Coordinator, &wire.Matches{Frag: uint16(ctx.Self())})
			}), nil
		})
})

// stormFragmentation is one node per site: the storm needs sites, not a
// graph.
func stormFragmentation() (*partition.Fragmentation, error) {
	b := graph.NewBuilder()
	assign := make([]int32, stormSites)
	for i := range assign {
		b.AddNode("x")
		assign[i] = int32(i)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return partition.Build(g, assign, stormSites)
}

// storm drives the no-op algorithm on c and reports messages retired per
// second and bytes allocated per message.
func storm(ctx context.Context, c *cluster.Cluster) (msgsPerS, allocPerMsg float64, err error) {
	s, err := c.OpenSession(cluster.SessionQuery, cluster.SessionSpec{Algo: stormAlgo},
		cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) {}))
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	burst := func() error {
		for b := 0; b < stormBursts; b++ {
			s.Broadcast(&wire.Control{Op: 1})
		}
		return s.WaitQuiesce(ctx)
	}
	if err := burst(); err != nil { // settle buffers and goroutines
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for p := 0; p < stormPhases; p++ {
		if err := burst(); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(t)
	runtime.ReadMemStats(&after)
	msgs := float64(stormPhases * stormBursts * stormSites * 2) // one out, one back
	return msgs / el.Seconds(), float64(after.TotalAlloc-before.TotalAlloc) / msgs, nil
}

// loopbackServers starts n in-process tcpnet site servers.
func loopbackServers(n int) (addrs []string, stop func(), err error) {
	var listeners []net.Listener
	stop = func() {
		for _, l := range listeners {
			l.Close()
		}
	}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		listeners = append(listeners, lis)
		addrs = append(addrs, lis.Addr().String())
		srv := &tcpnet.Server{Logf: func(string, ...any) {}}
		// Serve returns, with the listener's close error, when stop runs.
		go func() { _ = srv.Serve(lis) }()
	}
	return addrs, stop, nil
}

func probeCluster(ctx context.Context, put func(string, float64, int)) error {
	registerStorm()
	fr, err := stormFragmentation()
	if err != nil {
		return err
	}
	local := cluster.NewLocal(fr, cluster.Network{})
	rate, alloc, err := storm(ctx, local)
	if err == nil {
		put("cluster.storm_msgs_per_s", rate, stormPhases)
		put("cluster.alloc_bytes_per_msg", alloc, stormPhases)
		var sessions []float64
		sessions, err = idleSessions(ctx, local)
		put("cluster.session_us", median(sessions), len(sessions))
	}
	local.Shutdown()
	if err != nil {
		return fmt.Errorf("storm on cluster.NewLocal: %w", err)
	}

	addrs, stop, err := loopbackServers(2)
	if err != nil {
		return err
	}
	defer stop()
	tr, err := tcpnet.Dial(ctx, addrs, fr, tcpnet.Options{})
	if err != nil {
		return fmt.Errorf("storm dial: %w", err)
	}
	remote := cluster.NewWithTransport(tr)
	defer remote.Shutdown()
	rate, _, err = storm(ctx, remote)
	if err != nil {
		return fmt.Errorf("storm over tcpnet: %w", err)
	}
	put("tcpnet.storm_msgs_per_s", rate, stormPhases)
	return nil
}

// idleSessions times opening, quiescing and closing sessions that carry
// no traffic — the fixed cost every query and every Apply pays.
func idleSessions(ctx context.Context, c *cluster.Cluster) ([]float64, error) {
	var err error
	out := timeIt(200, us, func() {
		s, e := c.OpenSession(cluster.SessionQuery, cluster.SessionSpec{Algo: stormAlgo},
			cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) {}))
		if e != nil {
			err = e
			return
		}
		if e := s.WaitQuiesce(ctx); e != nil {
			err = e
		}
		s.Close()
	})
	return out, err
}

// probeTCPDeploy ships the workload's fragmentation to two in-process
// site servers, then runs the catalog on an in-process deployment of the
// same partition: the reference the TCP workload's latency is read
// against.
func probeTCPDeploy(ctx context.Context, in *inputs, part *dgs.Partition, fr *partition.Fragmentation, put func(string, float64, int)) error {
	addrs, stop, err := loopbackServers(in.spec.Daemons)
	if err != nil {
		return err
	}
	defer stop()
	t := time.Now()
	tr, err := tcpnet.Dial(ctx, addrs, fr, tcpnet.Options{})
	if err != nil {
		return fmt.Errorf("probe dial: %w", err)
	}
	put("tcpnet.deploy_ms", ms(time.Since(t)), 1)
	put("tcpnet.deploy_bytes", float64(tr.DeployBytes()), 1)
	tr.Shutdown()

	dep, err := dgs.Deploy(part)
	if err != nil {
		return err
	}
	defer dep.Close()
	var lat []float64
	for pass := 0; pass < 3; pass++ {
		for _, q := range in.catalog {
			t := time.Now()
			if _, err := dep.Query(ctx, q, dgs.WithAlgorithm(in.spec.Algo)); err != nil {
				return fmt.Errorf("in-process reference query: %w", err)
			}
			if pass > 0 { // the first pass warms the fragment indexes
				lat = append(lat, ms(time.Since(t)))
			}
		}
	}
	put("cluster.inproc_query_p50_ms", median(lat), len(lat))
	return nil
}

// probeServe times the gateway's hit path without HTTP: serve.Server
// over an in-process deployment, a warmed entry per catalog pattern.
func probeServe(ctx context.Context, in *inputs, part *dgs.Partition, put func(string, float64, int)) error {
	t := time.Now()
	dep, err := dgs.Deploy(part)
	if err != nil {
		return err
	}
	put("dgs.deploy_ms", ms(time.Since(t)), 1)
	defer dep.Close()
	srv := serve.New(dep, in.dict, serve.Options{CacheSize: 1024})
	var hits []float64
	for _, src := range in.patterns {
		req := serve.QueryRequest{Pattern: src}
		if _, err := srv.Query(ctx, req); err != nil {
			return fmt.Errorf("serve warm-up: %w", err)
		}
		var qerr error
		hits = append(hits, timeIt(100, us, func() {
			resp, err := srv.Query(ctx, req)
			if err != nil || !resp.Cached {
				qerr = fmt.Errorf("expected a cache hit: cached=%v err=%v", resp != nil && resp.Cached, err)
			}
		})...)
		if qerr != nil {
			return qerr
		}
	}
	put("serve.inproc_hit_us", median(hits), len(hits))
	return nil
}
