package main

// The names a later issue claims against: the five workloads and every
// metric, each with its unit, direction and — for end-to-end metrics —
// the relative worsening -compare tolerates. BENCHMARK.json repeats the
// part of this table the driver needs; TestBenchmarkJSONMatchesTable
// keeps the two from drifting apart.

// Workload names.
const (
	wlLocal    = "local-8"
	wlFanout   = "fanout-64-tcp"
	wlMsgstorm = "msgstorm-64-tcp"
	wlGateway  = "gateway-mixed"
	wlMaintain = "maintain-8"
)

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old median by which an end-to-end metric
	// may worsen before -compare calls it regressed; 0 means any
	// worsening counts. Per-layer metrics carry no bound.
	Bound float64
	// On lists the workloads that report the metric; nil means all five.
	On []string
	// Def says what is measured; Moves, for a per-layer metric, which
	// end-to-end metric it should move on which workload.
	Def   string
	Moves string
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	tcpWorkloads     = []string{wlFanout, wlMsgstorm}
	processWorkloads = []string{wlFanout, wlMsgstorm, wlGateway}
	applyWorkloads   = []string{wlGateway, wlMaintain}
	dgpmWorkloads    = []string{wlLocal, wlFanout, wlGateway, wlMaintain}
)

// endToEnd is what a user of the system sees, measured with tracing
// off. The metrics every workload reports (On == nil) are the ones
// BENCHMARK.json lists under end_to_end; the driver's schema has one
// list for all workloads, so the rest ride in its per_layer list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "inputs generated → first timed op: partition, spawn-to-healthy, Deploy / fragment shipping, Watch registration, one warm-up pass over the catalog; median of the run's set-ups; excludes go build of the daemons"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "client-observed query latency, median (open loop: from the due time)"},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		On:  []string{wlLocal, wlFanout, wlGateway, wlMaintain},
		Def: "same, p95; reported only from 200 samples up"},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "queries completed ÷ timed-phase seconds"},
	{Name: "apply_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: applyWorkloads,
		Def: "client-observed Apply / POST /apply latency, median (lands on the deletion path)"},
	{Name: "apply_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{wlMaintain},
		Def: "same, p95 (lands in the insertion / re-evaluation population); only from 200 samples up"},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "user+sys CPU of the benchmark process and every spawned process over the timed phase ÷ ops"},
	{Name: "ds_bytes_per_query", Unit: "B", Better: "lower", Bound: 0.10,
		Def: "mean Stats.DataBytes of evaluated (not cached, not coalesced) queries — the paper's DS"},
	{Name: "wire_bytes_per_payload_byte", Unit: "ratio", Better: "lower", Bound: 0.05, On: processWorkloads,
		Def: "ΣStats.WireBytes ÷ ΣStats.DataBytes over evaluated queries"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Def: "summed VmHWM of all owned processes at the end of the timed phase"},
	{Name: "failed_ops_share", Unit: "ratio", Better: "lower",
		Def: "ops that errored, timed out or got 503, ÷ ops attempted; a failed op misses every latency figure"},
	{Name: "wrong_results", Unit: "count", Better: "lower",
		Def: "answers differing from the oracle on the graph at the version the answer reports; non-zero fails the run"},
}

// perLayer is measured by the traced pass (-trace 1): direct timed calls
// into a layer's public functions on the workload's own fragments and
// catalog, and what the program reports about a replay of the op stream.
var perLayer = []metricDef{
	{Name: "graph.load_ms", Unit: "ms", Better: "lower",
		Def: "dgs.ReadGraph of the DGSG1 input", Moves: "setup_s → gateway-mixed"},
	{Name: "partition.build_ms", Unit: "ms", Better: "lower",
		Def: "dgs.PartitionWith", Moves: "setup_s → all"},
	{Name: "partition.vf_ratio", Unit: "ratio", Better: "lower",
		Def: "Partition.VfRatio", Moves: "ds_bytes_per_query → all"},
	{Name: "partition.index_build_ms_sum", Unit: "ms", Better: "lower",
		Def:   "Fragment.Index() on a clone of every fragment, summed",
		Moves: "setup_s → all; query_p50_ms → maintain-8; query_p95_ms → gateway-mixed (every Apply drops the index)"},
	{Name: "partition.fragment_codec_ms", Unit: "ms", Better: "lower",
		Def: "AppendFragment + DecodeFragment over all fragments", Moves: "setup_s → the three process workloads"},
	{Name: "partition.fragment_bytes", Unit: "B", Better: "lower",
		Def: "encoded size of all fragments", Moves: "setup_s → the three process workloads"},
	{Name: "partition.apply_batch_us", Unit: "us", Better: "lower",
		Def: "partition.ApplyBatchLocal of an 8-deletion batch on the probe's own fragmentation, median", Moves: "apply_p50_ms → maintain-8"},
	{Name: "pattern.parse_us", Unit: "us", Better: "lower",
		Def: "pattern.Parse per catalog pattern, median", Moves: "query_p50_ms → gateway-mixed (hit path)"},
	{Name: "plan.canonicalize_us", Unit: "us", Better: "lower",
		Def: "plan.Canonicalize per catalog pattern, median", Moves: "query_p50_ms → gateway-mixed (hit path)"},
	{Name: "plan.greedy_us", Unit: "us", Better: "lower",
		Def: "plan.GreedyPlan per catalog pattern, median", Moves: "query_p50_ms → local-8 (expected negligible; recorded so the residual is honest)"},
	{Name: "plan.collect_ms", Unit: "ms", Better: "lower",
		Def: "plan.Collect over the graph", Moves: "setup_s → all"},
	{Name: "dgpm.engine_build_ms_max", Unit: "ms", Better: "lower",
		Def: "dgpm.NewEnginePlanned per fragment: slowest fragment, mean over the catalog", Moves: "query_p50_ms → local-8"},
	{Name: "dgpm.engine_build_ms_sum", Unit: "ms", Better: "lower",
		Def: "same, summed over fragments", Moves: "cpu_s_per_op → local-8"},
	{Name: "dgpm.push_extract_ms_max", Unit: "ms", Better: "lower",
		Def:   "Engine.ExtractSubsystem for every parent in Fragment.InWatchers after Drain, on the fragments that pass maybePush's cheap bound: slowest fragment, mean over the catalog",
		Moves: "query_p50_ms → fanout-64-tcp (dominant), local-8"},
	{Name: "dgpm.push_extract_ms_sum", Unit: "ms", Better: "lower",
		Def: "same, summed over fragments", Moves: "cpu_s_per_op → fanout-64-tcp (dominant), local-8"},
	{Name: "dgpm.local_matches_ms_sum", Unit: "ms", Better: "lower",
		Def: "Engine.LocalMatches summed over fragments, mean over the catalog", Moves: "query_p50_ms → local-8"},
	{Name: "dgpm.site_busy_ms_max", Unit: "ms", Better: "lower", On: dgpmWorkloads,
		Def: "Stats.MaxSiteBusy, mean over replayed queries", Moves: "query_p50_ms → local-8, fanout-64-tcp"},
	{Name: "dgpm.site_busy_ms_sum", Unit: "ms", Better: "lower", On: dgpmWorkloads,
		Def: "Result.Trace.Totals() busy, mean over replayed queries", Moves: "cpu_s_per_op → local-8, fanout-64-tcp"},
	{Name: "dgpm.busy_share", Unit: "ratio", Better: "lower", On: dgpmWorkloads,
		Def: "ΣStats.MaxSiteBusy ÷ ΣStats.Wall over replayed queries", Moves: "query_p50_ms → local-8, fanout-64-tcp"},
	{Name: "dgpm.rounds_per_query", Unit: "count", Better: "lower", On: dgpmWorkloads,
		Def: "Stats.Rounds, mean", Moves: "query_p50_ms → fanout-64-tcp"},
	{Name: "dgpm.maintain_ms_per_batch", Unit: "ms", Better: "lower", On: []string{wlMaintain},
		Def: "ApplyStats.Maintenance.Wall on deletion batches, mean", Moves: "apply_p50_ms → maintain-8"},
	{Name: "dgpm.reeval_ms_per_batch", Unit: "ms", Better: "lower", On: []string{wlMaintain},
		Def: "ApplyStats.Maintenance.Wall on insertion batches, mean", Moves: "apply_p95_ms → maintain-8"},
	{Name: "dgpm.watch_register_ms", Unit: "ms", Better: "lower", On: []string{wlMaintain},
		Def: "the set-up's Deployment.Watch calls, summed", Moves: "setup_s → maintain-8"},
	{Name: "baseline.dmes_site_busy_ms_sum", Unit: "ms", Better: "lower", On: []string{wlMsgstorm},
		Def: "Result.Trace.Totals() busy under dMes, mean", Moves: "cpu_s_per_op → msgstorm-64-tcp"},
	{Name: "baseline.dmes_supersteps", Unit: "count", Better: "lower", On: []string{wlMsgstorm},
		Def: "Stats.Rounds under dMes, mean", Moves: "cpu_s_per_op → msgstorm-64-tcp"},
	{Name: "simulation.hhk_ms", Unit: "ms", Better: "lower",
		Def: "simulation.HHK (what dgs.Simulate runs) per catalog pattern, mean — the single-threaded baseline and the oracle's cost", Moves: "none — reference for query_p50_ms → local-8"},
	{Name: "cluster.msgs_per_query", Unit: "count", Better: "lower",
		Def: "Stats.DataMsgs, mean", Moves: "query_p50_ms, cpu_s_per_op → fanout-64-tcp, msgstorm-64-tcp"},
	{Name: "cluster.msgs_per_round", Unit: "count", Better: "higher",
		Def: "ΣStats.DataMsgs ÷ ΣStats.Rounds", Moves: "query_p50_ms, cpu_s_per_op → fanout-64-tcp, msgstorm-64-tcp"},
	{Name: "cluster.residual_ms", Unit: "ms", Better: "lower",
		Def: "Stats.Wall − Stats.MaxSiteBusy (quiescence, mailbox wait, transit), mean", Moves: "query_p50_ms → fanout-64-tcp, msgstorm-64-tcp"},
	{Name: "cluster.storm_msgs_per_s", Unit: "1/s", Better: "higher",
		Def:   "a no-op algorithm registered through cluster.RegisterAlgorithm: 16-broadcast bursts on cluster.NewLocal at 64 sites, messages retired per second",
		Moves: "query_qps → msgstorm-64-tcp"},
	{Name: "cluster.alloc_bytes_per_msg", Unit: "B", Better: "lower",
		Def: "runtime.MemStats.TotalAlloc delta of that storm ÷ messages", Moves: "query_qps → msgstorm-64-tcp"},
	{Name: "cluster.session_us", Unit: "us", Better: "lower",
		Def: "OpenSession + WaitQuiesce + Close of an idle no-op session, median", Moves: "query_p50_ms → maintain-8, gateway-mixed misses"},
	{Name: "cluster.inproc_query_p50_ms", Unit: "ms", Better: "lower", On: tcpWorkloads,
		Def: "the workload's catalog on an in-process deployment of the same partition, two passes, median", Moves: "reference for tcpnet.overhead_ms"},
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower",
		Def: "wire.Encode of the workload's payload shape (Falsify with 4 pairs; Vectors with 8 nodes under dMes)", Moves: "cpu_s_per_op → msgstorm-64-tcp, fanout-64-tcp"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower",
		Def: "wire.Decode of the same", Moves: "cpu_s_per_op → msgstorm-64-tcp, fanout-64-tcp"},
	{Name: "wire.decode_allocs_per_msg", Unit: "count", Better: "lower",
		Def: "heap allocations per wire.Decode of the same", Moves: "cpu_s_per_op → msgstorm-64-tcp, fanout-64-tcp"},
	{Name: "wire.frame_ns", Unit: "ns", Better: "lower",
		Def: "wire.AppendFrame + wire.ReadFrame of one such message", Moves: "cpu_s_per_op → msgstorm-64-tcp"},
	{Name: "wire.batch_ns_per_msg", Unit: "ns", Better: "lower",
		Def: "wire.Batch of 32 such messages, AppendTo + Decode, ÷ 32", Moves: "cpu_s_per_op → msgstorm-64-tcp"},
	{Name: "tcpnet.wire_bytes_per_query", Unit: "B", Better: "lower", On: processWorkloads,
		Def: "Stats.WireBytes, mean", Moves: "wire_bytes_per_payload_byte → fanout-64-tcp, msgstorm-64-tcp"},
	{Name: "tcpnet.frames_per_query", Unit: "count", Better: "lower", On: tcpWorkloads,
		Def: "Deployment.WireFrames delta (sent + received) ÷ replayed queries", Moves: "cpu_s_per_op → fanout-64-tcp, msgstorm-64-tcp"},
	{Name: "tcpnet.msgs_per_frame", Unit: "count", Better: "higher", On: tcpWorkloads,
		Def: "messages the traces count ÷ that frame delta", Moves: "cpu_s_per_op → fanout-64-tcp, msgstorm-64-tcp"},
	{Name: "tcpnet.deploy_ms", Unit: "ms", Better: "lower", On: tcpWorkloads,
		Def: "tcpnet.Dial of the workload's fragmentation to two in-process tcpnet.Servers on loopback", Moves: "setup_s → process workloads"},
	{Name: "tcpnet.deploy_bytes", Unit: "B", Better: "lower", On: tcpWorkloads,
		Def: "Net.DeployBytes of that Dial", Moves: "setup_s → process workloads"},
	{Name: "tcpnet.storm_msgs_per_s", Unit: "1/s", Better: "higher",
		Def: "the same no-op storm over two in-process tcpnet.Servers on loopback", Moves: "query_qps → msgstorm-64-tcp"},
	{Name: "tcpnet.overhead_ms", Unit: "ms", Better: "lower", On: tcpWorkloads,
		Def: "untraced query_p50_ms − cluster.inproc_query_p50_ms", Moves: "query_p50_ms → fanout-64-tcp"},
	{Name: "tcpnet.daemon_cpu_share", Unit: "ratio", Better: "lower", On: processWorkloads,
		Def: "CPU of the dgsd processes ÷ CPU of all owned processes over the untraced phase", Moves: "cpu_s_per_op → fanout-64-tcp, msgstorm-64-tcp"},
	{Name: "serve.hit_rate", Unit: "ratio", Better: "higher", On: []string{wlGateway},
		Def: "/stats deltas over the untraced phase: hits ÷ (hits + misses)", Moves: "query_p50_ms → gateway-mixed"},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: "higher", On: []string{wlGateway},
		Def: "/stats deltas: coalesced ÷ queries", Moves: "query_p95_ms → gateway-mixed"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", On: []string{wlGateway},
		Def: "/stats delta: overload sheds", Moves: "failed_ops_share → gateway-mixed"},
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower", On: []string{wlGateway},
		Def: "client latency of responses with cached=true, median", Moves: "query_p50_ms → gateway-mixed"},
	{Name: "serve.miss_p50_ms", Unit: "ms", Better: "lower", On: []string{wlGateway},
		Def: "client latency of evaluated responses, median", Moves: "query_p95_ms → gateway-mixed"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower", On: []string{wlGateway},
		Def: "client latency − the response's stats.pt_ms, evaluated responses only, median", Moves: "query_p95_ms → gateway-mixed"},
	{Name: "serve.inproc_hit_us", Unit: "us", Better: "lower", On: []string{wlGateway},
		Def: "serve.Server.Query on a warmed entry of an in-process deployment, no HTTP, median", Moves: "query_p50_ms → gateway-mixed"},
	{Name: "dgs.deploy_ms", Unit: "ms", Better: "lower",
		Def: "dgs.Deploy as the set-up calls it (in-process for gateway-mixed, whose real Deploy runs inside dgsgw)", Moves: "setup_s → all"},
	{Name: "dgs.apply_delta_ms", Unit: "ms", Better: "lower", On: []string{wlMaintain},
		Def: "ApplyStats.Delta.Wall, mean", Moves: "apply_p50_ms → maintain-8, gateway-mixed"},
	{Name: "dgs.reevaluated_per_batch", Unit: "count", Better: "lower", On: applyWorkloads,
		Def: "ApplyStats.Reevaluated (the /apply response's reevaluated), mean over batches", Moves: "apply_p50_ms → maintain-8, gateway-mixed"},
	{Name: "dgs.residual_ms", Unit: "ms", Better: "lower",
		Def: "root span − Σ child spans of the replayed ops that carry evaluation stats, median: the part of an op no span explains", Moves: "should shrink as later issues add spans; every workload"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower",
		Def: "traced vs untraced query_p50_ms of the same ops", Moves: "budget for ROADMAP item 5; every workload"},
	{Name: "loadgen.lag_p95_ms", Unit: "ms", Better: "lower", On: []string{wlGateway},
		Def: "how late the open-loop generator was ready to issue an op, not counting its wait for one of the two connections (that wait is in the op's latency), p95 of the untraced phase; the run fails above 5 ms", Moves: "validity of gateway-mixed"},
}

// universal reports the end-to-end metrics every workload emits — the
// driver's end_to_end list; the others are its extra per_layer entries.
func universal() (all, some []metricDef) {
	for _, d := range endToEnd {
		switch {
		case d.Bound == 0:
			// failed_ops_share and wrong_results are 0 on a healthy run; the
			// driver reads them from the result line's failed / correct.
		case d.On == nil:
			all = append(all, d)
		default:
			some = append(some, d)
		}
	}
	return all, some
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or mean; 0 where the
	// value is a single measurement.
	N int `json:"n,omitempty"`
}

// metricSet collects a run's metrics by declared name.
type metricSet map[string]value

// put records a metric; the name must be declared, so that a typo cannot
// create a metric nobody reads.
func (m metricSet) put(defs []metricDef, name string, v float64, n int) {
	d, ok := findMetric(defs, name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m[name] = value{Value: v, Unit: d.Unit, N: n}
}
