package dgs

// The persistent deployment API — the paper's actual setting: a graph G
// is fragmented ONCE across n sites (§2.2), and then a stream of pattern
// queries is evaluated against the resident fragments. Deploy starts the
// site substrate and returns a long-lived handle; Query evaluates one
// pattern with per-query algorithm selection, context cancellation and
// isolated Stats; Close tears the substrate down. See DESIGN.md for the
// lifecycle and concurrency contract.

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/baseline"
	"dgs/internal/cluster"
	"dgs/internal/dagsim"
	"dgs/internal/dgpm"
	"dgs/internal/obs"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
	"dgs/internal/transport/tcpnet"
	"dgs/internal/treesim"
)

// Transport is the pluggable wire backend a Deployment runs on: the
// in-process channel network by default, loopback/remote TCP via
// WithRemoteSites, or any custom implementation via WithTransport.
type Transport = cluster.Transport

// ErrClosed marks an operation against a closed deployment — returned
// (wrapped; test with errors.Is) by Query, Apply and Watch after Close,
// and by queries a concurrent Close aborted. It is the server-side
// "shutting down" condition, distinct from caller mistakes.
var ErrClosed = errors.New("deployment is closed")

// queryConfig is the resolved per-query configuration.
type queryConfig struct {
	algo        Algorithm
	theta       float64
	thetaSet    bool
	disablePush bool
	graphIsDAG  bool
	trace       bool
}

// dgpmConfig translates the query configuration into the dGPM engine
// config. An explicitly set θ is honored even when it is 0 (always
// push).
func (qc queryConfig) dgpmConfig() dgpm.Config {
	cfg := dgpm.DefaultConfig()
	if qc.thetaSet {
		cfg.Theta = qc.theta
	}
	if qc.disablePush {
		cfg.Push = false
	}
	return cfg
}

// QueryOption tunes one Query (or, via WithQueryDefaults, every query of
// a deployment).
type QueryOption func(*queryConfig)

// WithAlgorithm selects the evaluation algorithm (default AlgoDGPM).
func WithAlgorithm(a Algorithm) QueryOption {
	return func(qc *queryConfig) { qc.algo = a }
}

// WithPushTheta sets the push benefit threshold θ of §4.2 (default 0.2).
// An explicit 0 is honored: θ=0 makes every beneficial-or-not push
// fire. Only meaningful for AlgoDGPM. A NaN θ fails the query.
func WithPushTheta(theta float64) QueryOption {
	return func(qc *queryConfig) { qc.theta = theta; qc.thetaSet = true }
}

// WithPushDisabled turns the push operation off while keeping
// incremental evaluation (the ablation point between dGPM and dGPMNOpt).
func WithPushDisabled() QueryOption {
	return func(qc *queryConfig) { qc.disablePush = true }
}

// WithGraphIsDAG asserts the data graph is acyclic, allowing AlgoDGPMd
// to answer cyclic patterns with ∅ immediately (§5.1 "DAG G") instead of
// running the distributed acyclicity check.
func WithGraphIsDAG() QueryOption {
	return func(qc *queryConfig) { qc.graphIsDAG = true }
}

// WithTrace records a distributed trace for the query: every site (and
// the coordinator) logs per-round spans — busy time, messages and bytes
// in/out — assembled into Result.Trace after the query completes.
// Tracing rides the session spec; on a TCP deployment the spans ship
// back in a TRACE frame after the session closes, costing nothing on
// the query's hot path and leaving an untraced query's wire traffic
// byte-identical to a build without tracing.
func WithTrace() QueryOption {
	return func(qc *queryConfig) { qc.trace = true }
}

// deployConfig collects Deploy-time settings.
type deployConfig struct {
	transport   cluster.Transport
	remoteAddrs []string
	spares      []string
	hbInterval  time.Duration
	hbMisses    int
	defaults    queryConfig
}

// DeployOption configures a Deployment at Deploy time.
type DeployOption func(*deployConfig)

// WithRemoteSites deploys over TCP: one dgsd daemon per address, each
// hosting a contiguous block of the fragments, shipped at Deploy time.
// The deployment then spans OS processes — queries, live updates and
// standing queries work exactly as in-process, and Stats.WireBytes
// reports the measured socket traffic per query. Deploy fails if any
// daemon is unreachable, speaks a different protocol version, or
// rejects its fragments.
func WithRemoteSites(addrs ...string) DeployOption {
	return func(dc *deployConfig) { dc.remoteAddrs = append([]string(nil), addrs...) }
}

// WithTransport installs a caller-built Transport (expert use: tests,
// custom backends). The transport must host exactly the partition's
// fragments. Unless it declares cluster.FragmentSharer (sites operate
// on the driver's own fragment objects), it is treated as remote:
// Apply replays update batches on the driver's fragmentation to keep
// its metadata in sync with the sites' copies.
func WithTransport(tr Transport) DeployOption {
	return func(dc *deployConfig) { dc.transport = tr }
}

// WithQueryDefaults sets deployment-level defaults applied to every
// Query before its own options.
func WithQueryDefaults(opts ...QueryOption) DeployOption {
	return func(dc *deployConfig) {
		for _, o := range opts {
			o(&dc.defaults)
		}
	}
}

// Deployment is a fragmented graph resident on a running distributed
// substrate: one goroutine per site plus a coordinator, created once by
// Deploy and serving any number of Query calls — sequentially or
// concurrently — until Close. Queries multiplex over the same sites
// with isolated per-query statistics.
type Deployment struct {
	part     *Partition
	c        *cluster.Cluster
	defaults queryConfig
	// planStats are the label statistics plans are built from, collected
	// once at Deploy: Apply mutates edges only, so label populations —
	// and with them the Empty short-circuit — stay exact forever.
	planStats *plan.Stats
	// remote marks a deployment whose sites hold their own fragment
	// copies (another process); Apply then replays batches locally to
	// keep the driver's fragmentation metadata in sync.
	remote bool
	// autoRecover runs recovery automatically when the transport reports
	// a lost site (set by WithSpareSites / WithHeartbeat).
	autoRecover bool
	// recoverMu serializes Recover calls (manual and automatic).
	recoverMu sync.Mutex
	// failovers counts completed recoveries.
	failovers atomic.Int64
	// metrics is the deployment's metric registry (driver + transport
	// instruments); traceSeq numbers traced queries' trace IDs.
	metrics  *obs.Registry
	om       driverMetrics
	traceSeq atomic.Uint64
	// applyInterrupted records that a distribution batch died mid-flight
	// (some sites mutated, others not); the next recovery then re-ships
	// every fragment instead of only the lost ones. Guarded by state
	// held exclusively.
	applyInterrupted bool

	// state guards the resident graph: queries (and standing-query
	// evaluations) share it, Apply takes it exclusively. In-flight
	// queries therefore see the graph as of their start; queries issued
	// after Apply returns see the updated graph.
	state sync.RWMutex
	// version counts the update batches that changed the graph. It is
	// written only while state is held exclusively (Apply), so a query —
	// which holds the read lock throughout its evaluation — observes one
	// stable version for its whole run. Caches key freshness off it.
	// Accessed atomically so Version() never blocks behind an in-flight
	// Apply (health probes must stay live during large updates).
	version atomic.Uint64

	// shard is the deployment's standing-query shard: every non-empty
	// Watch pattern lives as one block of its single maintenance
	// session, opened by the first Watch. It is the only holder of
	// standing-query state; Maintained handles are views of it.
	shard watchShard

	mu     sync.Mutex
	closed bool
}

// Deploy makes the fragmentation resident and returns the serving
// handle. In-process (the default), it starts one site goroutine per
// fragment plus the coordinator; with WithRemoteSites it ships each
// daemon its fragments over TCP and the sites live there. The caller
// must Close the deployment when done with it.
func Deploy(part *Partition, opts ...DeployOption) (*Deployment, error) {
	if part == nil {
		return nil, errorf("deploy: nil partition")
	}
	var dc deployConfig
	for _, o := range opts {
		o(&dc)
	}
	if dc.transport != nil && len(dc.remoteAddrs) > 0 {
		return nil, errorf("deploy: WithTransport and WithRemoteSites are mutually exclusive")
	}
	d := &Deployment{
		part:      part,
		defaults:  dc.defaults,
		planStats: plan.Collect(part.fr.G),
		metrics:   obs.NewRegistry(),
	}
	d.registerMetrics()
	switch {
	case dc.transport != nil:
		if dc.transport.NumSites() != part.NumFragments() {
			return nil, errorf("deploy: transport hosts %d sites for %d fragments",
				dc.transport.NumSites(), part.NumFragments())
		}
		sharer, ok := dc.transport.(cluster.FragmentSharer)
		d.remote = !(ok && sharer.SharesDriverFragments())
		d.c = cluster.NewWithTransport(dc.transport)
	case len(dc.remoteAddrs) > 0:
		ctx := context.Background()
		tr, err := tcpnet.Dial(ctx, dc.remoteAddrs, part.fr, tcpnet.Options{
			Spares:            dc.spares,
			HeartbeatInterval: dc.hbInterval,
			HeartbeatMisses:   dc.hbMisses,
			Metrics:           d.metrics,
		})
		if err != nil {
			return nil, errorf("deploy: %w", err)
		}
		d.remote = true
		d.c = cluster.NewWithTransport(tr)
	default:
		d.c = cluster.NewLocal(part.fr, cluster.Network{})
	}
	if !d.remote {
		d.registerEngineMetrics()
	}
	d.bindFailover(len(dc.spares) > 0 || dc.hbInterval > 0)
	return d, nil
}

// driverMetrics are the deployment's driver-side instruments, written
// by Query and Apply.
type driverMetrics struct {
	queries      *obs.Counter
	queryErrors  *obs.Counter
	querySeconds *obs.Histogram
	queryRounds  *obs.Histogram
	dataBytes    *obs.Counter
	pushMsgs     *obs.Counter
	pushBytes    *obs.Counter
	controlBytes *obs.Counter
	resultBytes  *obs.Counter
	wireBytes    *obs.Counter
	rounds       *obs.Counter
	applies      *obs.Counter
}

// registerMetrics installs the driver-side instruments on the
// deployment's registry. Aggregates that already live on the Deployment
// (graph version, failovers) export as funcs; per-query observations
// get dedicated instruments Query drives.
func (d *Deployment) registerMetrics() {
	r := d.metrics
	d.om.queries = r.Counter("dgs_queries_total", "Queries evaluated (successes).")
	d.om.queryErrors = r.Counter("dgs_query_errors_total", "Queries that returned an error.")
	d.om.querySeconds = r.Histogram("dgs_query_seconds",
		"Query response time (the paper's PT), in seconds.", obs.DefTimeBuckets)
	d.om.queryRounds = r.Histogram("dgs_query_rounds",
		"Communication rounds per query.", obs.DefCountBuckets)
	d.om.dataBytes = r.Counter("dgs_data_bytes_total",
		"Data shipment bytes across all queries (the paper's DS).")
	d.om.pushMsgs = r.Counter("dgs_push_msgs_total",
		"Push messages shipped across all queries (dGPM's §4.2 benefit test cleared θ).")
	d.om.pushBytes = r.Counter("dgs_push_bytes_total",
		"Pushed-equation bytes across all queries (a share of dgs_data_bytes_total).")
	d.om.controlBytes = r.Counter("dgs_control_bytes_total",
		"Coordination traffic bytes across all queries.")
	d.om.resultBytes = r.Counter("dgs_result_bytes_total",
		"Match collection bytes across all queries.")
	d.om.wireBytes = r.Counter("dgs_wire_bytes_total",
		"Measured transport bytes across all queries (0 in-process).")
	d.om.rounds = r.Counter("dgs_rounds_total",
		"Communication rounds summed across all queries.")
	d.om.applies = r.Counter("dgs_applies_total",
		"Update batches applied to the resident graph.")
	r.CounterFunc("dgs_failovers_total",
		"Completed site-loss recoveries.",
		func() float64 { return float64(d.failovers.Load()) })
	r.GaugeFunc("dgs_graph_version",
		"Resident graph version (update batches that changed the graph).",
		func() float64 { return float64(d.version.Load()) })
}

// registerEngineMetrics exports, for a deployment whose sites run in
// this process, how the process's dGPM sites came by their engines:
// built from scratch, or restored from the prepared state an earlier
// build filed on the same fragment version. Restores ÷ (builds +
// restores) is the prepared state's hit share. The counts are
// process-wide, as the engines' memos live on the fragments.
func (d *Deployment) registerEngineMetrics() {
	d.metrics.CounterFunc("dgs_engine_builds_total",
		"dGPM engines built from scratch in this process (the seed fixpoint run).",
		func() float64 { b, _ := dgpm.EngineCounts(); return float64(b) })
	d.metrics.CounterFunc("dgs_engine_restores_total",
		"dGPM engines restored from prepared state in this process (the seed fixpoint skipped).",
		func() float64 { _, r := dgpm.EngineCounts(); return float64(r) })
}

// Metrics returns the deployment's metric registry: driver-side query
// instruments plus, on a TCP deployment, the transport's. Serve it with
// obs.Handler — the gateway merges it into its /metrics endpoint.
func (d *Deployment) Metrics() *obs.Registry { return d.metrics }

// Remote reports whether the deployment's sites live in other OS
// processes (fragments were shipped at Deploy time).
func (d *Deployment) Remote() bool { return d.remote }

// NumSites reports the number of worker sites (= fragments).
func (d *Deployment) NumSites() int { return d.c.NumSites() }

// WireFrames reports the post-deployment frames the driver has written
// to and read from its daemon sockets so far, when the transport
// measures them (the TCP backend does); in-process deployments report
// zeros. Coalescing makes this grow slower than the message count
// (benchmark/ reports tcpnet.frames_per_query and msgs_per_frame).
func (d *Deployment) WireFrames() (sent, received int64) {
	if fc, ok := d.c.Transport().(interface{ Frames() (int64, int64) }); ok {
		return fc.Frames()
	}
	return 0, 0
}

// Partition returns the resident fragmentation.
func (d *Deployment) Partition() *Partition { return d.part }

// planFor is the planner's verdict on p — the Empty short-circuit and
// the node estimates Explain renders: a pure function of the pattern
// and the Deploy-time label statistics. Nothing of it is shipped.
func (d *Deployment) planFor(p *pattern.Pattern) *plan.Plan {
	return plan.GreedyPlan(p, d.planStats)
}

// Version reports the graph version: a monotone counter starting at 0
// that Apply bumps once per batch that changes the graph (a batch whose
// ops all cancel out does not bump it). Every Result is tagged with the
// version its query evaluated against, so a result cache can tell
// whether a stored answer still reflects the resident graph. Version
// never blocks: during an in-flight Apply it reports the pre-batch
// version until the batch commits.
func (d *Deployment) Version() uint64 { return d.version.Load() }

// Query evaluates the data-selecting pattern query q against the
// resident fragments. Concurrent calls are safe: each query runs as its
// own session on the shared sites, with isolated Stats. Cancelling ctx
// abandons the query promptly — its remaining messages are discarded
// without being delivered — and returns the context's error.
func (d *Deployment) Query(ctx context.Context, q *Pattern, opts ...QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q == nil {
		return nil, errorf("query: nil pattern")
	}
	// Fail fast on an already-cancelled context rather than posting the
	// query to the sites first.
	if err := ctx.Err(); err != nil {
		return nil, errorf("query: %w", err)
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, errorf("query: %w", ErrClosed)
	}
	cfg := d.defaults
	for _, o := range opts {
		o(&cfg)
	}
	if math.IsNaN(cfg.theta) {
		return nil, errorf("query: push threshold θ is NaN")
	}
	// Share the resident graph state with other queries; Apply batches
	// wait for in-flight queries and vice versa.
	d.state.RLock()
	defer d.state.RUnlock()

	// An Empty verdict means some query node's label has zero
	// occurrences in the deployed graph, so Q(G) = ∅ for every algorithm
	// (initial candidates are exactly the label-consistent nodes): answer
	// here, with no session opened and no wire traffic at all.
	if d.planFor(q.p).Empty {
		d.om.queries.Inc()
		m := simulation.NewMatch(q.p.NumNodes()).Canonical()
		return &Result{Match: &Match{m: m}, Version: d.version.Load()}, nil
	}

	// Trace IDs start at 1: zero is the wire encoding for "untraced".
	var traceID uint64
	if cfg.trace {
		traceID = d.traceSeq.Add(1)
	}
	var m *simulation.Match
	var st cluster.Stats
	var qt *obs.QueryTrace
	var err error
	switch cfg.algo {
	case AlgoDGPM:
		m, st, qt, err = dgpm.Eval(ctx, d.c, q.p, d.part.fr, cfg.dgpmConfig(), traceID)
	case AlgoDGPMNoOpt:
		m, st, qt, err = dgpm.Eval(ctx, d.c, q.p, d.part.fr, dgpm.NOptConfig(), traceID)
	case AlgoDGPMd:
		m, st, qt, err = dagsim.Eval(ctx, d.c, q.p, d.part.fr, cfg.graphIsDAG, traceID)
	case AlgoDGPMt:
		m, st, qt, err = treesim.Eval(ctx, d.c, q.p, d.part.fr, traceID)
	case AlgoMatch:
		m, st, qt, err = baseline.EvalMatch(ctx, d.c, q.p, traceID)
	case AlgoDisHHK:
		m, st, qt, err = baseline.EvalDisHHK(ctx, d.c, q.p, traceID)
	case AlgoDMes:
		m, st, qt, err = baseline.EvalDMes(ctx, d.c, q.p, d.part.fr, traceID)
	default:
		return nil, errorf("unknown algorithm %d", cfg.algo)
	}
	if err != nil {
		d.om.queryErrors.Inc()
		if errors.Is(err, cluster.ErrSiteLost) {
			// Retryable: the deployment recovers (or Recover does) and
			// the same query then succeeds — dgsgw turns this into 503
			// + Retry-After rather than a hard failure.
			return nil, errorf("query %s: %w", cfg.algo, publicErr(err))
		}
		if errors.Is(err, cluster.ErrClosed) {
			return nil, errorf("query %s: %w while evaluating", cfg.algo, ErrClosed)
		}
		return nil, errorf("query %s: %w", cfg.algo, err)
	}
	d.observeQuery(st)
	// d.version cannot change while the read lock is held, so the tag is
	// exactly the graph state the evaluation observed.
	return &Result{Match: &Match{m: m}, Stats: fromCluster(st), Version: d.version.Load(), Trace: qt}, nil
}

// observeQuery folds one successful query's stats into the metrics.
func (d *Deployment) observeQuery(st cluster.Stats) {
	d.om.queries.Inc()
	d.om.querySeconds.Observe(st.Wall.Seconds())
	d.om.queryRounds.Observe(float64(st.Rounds))
	d.om.dataBytes.Add(st.DataBytes)
	d.om.pushMsgs.Add(st.PushMsgs)
	d.om.pushBytes.Add(st.PushBytes)
	d.om.controlBytes.Add(st.ControlBytes)
	d.om.resultBytes.Add(st.ResultBytes)
	d.om.wireBytes.Add(st.WireBytes)
	d.om.rounds.Add(st.Rounds)
}

// QueryBoolean evaluates q as a Boolean pattern query: true iff G
// matches Q.
func (d *Deployment) QueryBoolean(ctx context.Context, q *Pattern, opts ...QueryOption) (bool, Stats, error) {
	res, err := d.Query(ctx, q, opts...)
	if err != nil {
		return false, Stats{}, err
	}
	return res.Match.Ok(), res.Stats, nil
}

// Close shuts the substrate down: in-flight queries are aborted (their
// Query calls return an error), standing-query sessions are dropped
// (their Maintained handles keep serving the last relation), and the
// site goroutines exit. Idempotent; queries after Close fail.
func (d *Deployment) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.c.Shutdown()
	return nil
}
