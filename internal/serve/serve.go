// Package serve is the query-serving subsystem: it fronts a
// dgs.Deployment — in-process or remote over TCP — with a result cache,
// admission control, and an HTTP/JSON API, turning the fragment-once/
// serve-many engine into something that can face query traffic.
//
// Three mechanisms, layered in this order on every request:
//
//  1. Result cache. Queries are keyed by their canonical form — the
//     pattern's Parse-format rendering (stable node order) plus the
//     evaluation config — and results are tagged with the graph version
//     they were computed at (dgs.Result.Version). A hit requires the tag
//     to equal the deployment's current version, so any Apply that
//     changes the graph invalidates every stale entry at once.
//  2. Coalescing. Concurrent identical misses share one distributed
//     session: one leader evaluates, followers wait for its result.
//  3. Admission control. At most MaxInFlight evaluations run at once; up
//     to MaxQueue more wait (charged against their deadline); beyond
//     that, queries are shed immediately with ErrOverload.
//
// Server.Handler exposes the subsystem over HTTP (POST /query,
// POST /apply, GET /stats, GET /healthz — docs/HTTP.md is the spec), and
// cmd/dgsgw packages it as a daemon that can itself dial remote dgsd
// site servers, so the full stack runs as separate processes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"

	"dgs"
	"dgs/internal/obs"
)

// Options tunes a Server. The zero value selects the defaults.
type Options struct {
	// MaxInFlight bounds concurrently executing evaluations (default 4).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot; a query
	// arriving beyond it is rejected with ErrOverload (default 64).
	MaxQueue int
	// DefaultTimeout is the per-query deadline applied when a request
	// does not carry its own (default 30s). Queue wait counts against it.
	DefaultTimeout time.Duration
	// CacheSize is the maximum number of cached results; 0 selects the
	// default 1024, negative disables caching.
	CacheSize int
	// Algorithm is the default evaluation algorithm for requests that do
	// not name one (default dgs.AlgoDGPM).
	Algorithm dgs.Algorithm
	// SlowQuery logs any /query whose total latency (queue wait
	// included) reaches the threshold, through Logger at Warn. 0
	// disables the slow-query log.
	SlowQuery time.Duration
	// Logger receives the server's structured logs (slow queries); nil
	// selects slog.Default().
	Logger *slog.Logger
}

func (o Options) norm() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	return o
}

// RequestError marks a malformed request (unparseable pattern, unknown
// algorithm): the caller's fault, HTTP 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Server fronts one deployment with caching, coalescing and admission
// control. Safe for concurrent use.
type Server struct {
	dep    *dgs.Deployment
	dict   *dgs.Dict
	opts   Options
	cache  *cache // nil when caching is disabled
	gate   *gate
	fl     *flightGroup
	start  time.Time
	logger *slog.Logger

	// The counters stay plain int64s driven by atomic.AddInt64 (the
	// registry reads them through CounterFuncs) so Counters() keeps its
	// exact JSON shape and pre-existing by-value Server fixtures stay
	// `go vet` copylocks-clean.
	nQueries, nHits, nMisses, nCoalesced int64
	nRejected, nDeadline, nErrors        int64
	nApplies, nSlow                      int64

	reg          *obs.Registry
	querySeconds *obs.Histogram // total /query latency, cache hits included
	hitAge       *obs.Histogram // age of served cache entries
}

// New builds a Server over dep. dict must be the dictionary the deployed
// graph's labels are interned in, so incoming pattern text resolves to
// the same label values.
func New(dep *dgs.Deployment, dict *dgs.Dict, opts Options) *Server {
	opts = opts.norm()
	s := &Server{
		dep:   dep,
		dict:  dict,
		opts:  opts,
		gate:  newGate(opts.MaxInFlight, opts.MaxQueue),
		fl:    newFlightGroup(),
		start: time.Now(),
	}
	if opts.CacheSize > 0 {
		s.cache = newCache(opts.CacheSize)
	}
	s.logger = opts.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.reg = obs.NewRegistry()
	s.registerMetrics()
	return s
}

// registerMetrics publishes the serving counters on the gateway
// registry. The /stats JSON snapshot (Counters) and the /metrics
// exposition read the same backing atomics, so the two views always
// agree.
func (s *Server) registerMetrics() {
	load := func(p *int64) func() float64 {
		return func() float64 { return float64(atomic.LoadInt64(p)) }
	}
	s.reg.CounterFunc("dgs_gw_queries_total", "Gateway /query requests.", load(&s.nQueries))
	s.reg.CounterFunc("dgs_gw_cache_hits_total", "Queries served from the result cache.", load(&s.nHits))
	s.reg.CounterFunc("dgs_gw_cache_misses_total", "Cacheable queries that missed.", load(&s.nMisses))
	s.reg.CounterFunc("dgs_gw_coalesced_total", "Queries served by joining a concurrent identical flight.", load(&s.nCoalesced))
	s.reg.CounterFunc("dgs_gw_rejected_total", "Queries shed by admission control (overload).", load(&s.nRejected))
	s.reg.CounterFunc("dgs_gw_deadline_total", "Queries that exceeded their per-query deadline.", load(&s.nDeadline))
	s.reg.CounterFunc("dgs_gw_errors_total", "Malformed requests and evaluation failures.", load(&s.nErrors))
	s.reg.CounterFunc("dgs_gw_applies_total", "Successfully applied edge-update batches.", load(&s.nApplies))
	s.reg.CounterFunc("dgs_gw_slow_queries_total", "Queries at or over the slow-query threshold.", load(&s.nSlow))
	s.reg.GaugeFunc("dgs_gw_in_flight", "Concurrently executing evaluations.", func() float64 {
		return float64(s.gate.inFlight())
	})
	s.reg.GaugeFunc("dgs_gw_queue_depth", "Queries waiting for an execution slot.", func() float64 {
		return float64(s.gate.queueDepth())
	})
	s.reg.GaugeFunc("dgs_gw_cache_entries", "Live result-cache entries.", func() float64 {
		if s.cache == nil {
			return 0
		}
		return float64(s.cache.len())
	})
	s.querySeconds = s.reg.Histogram("dgs_gw_query_seconds", "Total /query latency (cache hits included).", obs.DefTimeBuckets)
	s.hitAge = s.reg.Histogram("dgs_gw_cache_hit_age_seconds", "Age of cache entries at the moment they were served.", []float64{0.1, 0.5, 1, 5, 15, 60, 300, 1800, 7200})
}

// Metrics returns the gateway's metrics registry, for exposition
// alongside the deployment's (Deployment.Metrics) at GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Deployment returns the fronted deployment.
func (s *Server) Deployment() *dgs.Deployment { return s.dep }

// QueryRequest is one query, as posted to /query.
type QueryRequest struct {
	// Pattern is the query in the pattern DSL (node <name> <label> /
	// edge <from> <to>).
	Pattern string `json:"pattern"`
	// Algo names the evaluation algorithm (dgsrun -algo names); empty
	// selects the server's default.
	Algo string `json:"algo,omitempty"`
	// Theta overrides the push benefit threshold θ (dGPM only); an
	// explicit 0 is honored.
	Theta *float64 `json:"theta,omitempty"`
	// NoPush disables the push optimization (dGPM only).
	NoPush bool `json:"no_push,omitempty"`
	// GraphIsDAG asserts the data graph is acyclic (dGPMd).
	GraphIsDAG bool `json:"graph_is_dag,omitempty"`
	// IncludeMatches returns the full match relation, not just its size.
	IncludeMatches bool `json:"matches,omitempty"`
	// NoCache bypasses the result cache and coalescing for this query
	// (it still passes admission control).
	NoCache bool `json:"no_cache,omitempty"`
	// Trace evaluates with distributed tracing and returns the span
	// tree in the response. A traced query bypasses the cache and
	// coalescing like NoCache (a shared or cached result carries no
	// trace of THIS request's evaluation), but still passes admission.
	Trace bool `json:"trace,omitempty"`
	// Explain returns the plan — the pattern's nodes and edges in
	// declaration order with their candidate estimates, the empty
	// verdict and the canonical cache key — without executing the
	// query. Nothing is evaluated, cached or admitted.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMS overrides the server's default per-query deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryStats is the distributed cost of the evaluation that produced a
// response (for cached responses: the evaluation that filled the entry).
type QueryStats struct {
	PTms         float64 `json:"pt_ms"`
	DataBytes    int64   `json:"data_bytes"`
	DataMsgs     int64   `json:"data_msgs"`
	ControlBytes int64   `json:"control_bytes"`
	ResultBytes  int64   `json:"result_bytes"`
	Rounds       int64   `json:"rounds"`
	WireBytes    int64   `json:"wire_bytes,omitempty"`
}

func toQueryStats(st dgs.Stats) QueryStats {
	return QueryStats{
		PTms:         float64(st.Wall.Microseconds()) / 1000,
		DataBytes:    st.DataBytes,
		DataMsgs:     st.DataMsgs,
		ControlBytes: st.ControlBytes,
		ResultBytes:  st.ResultBytes,
		Rounds:       st.Rounds,
		WireBytes:    st.WireBytes,
	}
}

// QueryResponse is the answer to one query.
type QueryResponse struct {
	// OK reports whether G matches Q (the Boolean answer).
	OK bool `json:"ok"`
	// Pairs is |Q(G)| as a set of (query node, data node) pairs.
	Pairs int `json:"pairs"`
	// Matches maps query node names to their sorted match sets; only
	// with IncludeMatches.
	Matches map[string][]dgs.NodeID `json:"matches,omitempty"`
	// Version is the graph version the result was computed at.
	Version uint64 `json:"version"`
	// Algo is the algorithm that evaluated the query.
	Algo string `json:"algo"`
	// Cached marks a result served from the cache without evaluation.
	Cached bool `json:"cached"`
	// Coalesced marks a result shared from a concurrent identical query.
	Coalesced bool `json:"coalesced,omitempty"`
	// Stats is the distributed evaluation cost.
	Stats QueryStats `json:"stats"`
	// Trace is the evaluation's span tree; only for Trace requests.
	Trace *dgs.QueryTrace `json:"trace,omitempty"`
	// Plan is the pattern's plan; only for Explain requests, which
	// carry no evaluation fields (OK/Pairs/Stats stay zero).
	Plan *dgs.PlanInfo `json:"plan,omitempty"`
}

// compiled is a parsed and canonicalized query.
type compiled struct {
	// reqQ is the pattern as posted (its node names render the
	// response); q is its canonical form — the pattern actually
	// evaluated, so results cache and coalesce across every
	// renamed-equivalent request — and perm maps reqQ's node u to q's
	// node perm[u].
	reqQ        *dgs.Pattern
	q           *dgs.Pattern
	perm        []int
	opts        []dgs.QueryOption
	algo        dgs.Algorithm
	key         string // canonical pattern key + config
	wantMatches bool
	wantTrace   bool
}

// compile parses and canonicalizes a request. The cache key is the
// pattern's canonical key — invariant under node renaming and
// declaration reordering, so equivalent patterns share one entry no
// matter how they were written — plus every config knob that can change
// the answer or its cost.
func (s *Server) compile(req QueryRequest) (*compiled, error) {
	if strings.TrimSpace(req.Pattern) == "" {
		return nil, badRequest("empty pattern")
	}
	// The label dictionary is safe for concurrent interning (lock-free
	// reads, serialized writers), so request threads parse in parallel —
	// pattern compilation is no longer a gateway-wide critical section.
	reqQ, err := dgs.ParsePattern(s.dict, req.Pattern)
	if err != nil {
		return nil, badRequest("pattern: %v", err)
	}
	q, canon, perm := reqQ.Canonical()
	algo := s.opts.Algorithm
	if req.Algo != "" {
		a, ok := dgs.ParseAlgorithm(req.Algo)
		if !ok {
			return nil, badRequest("unknown algorithm %q (have %s)", req.Algo, strings.Join(dgs.AlgorithmNames(), "|"))
		}
		algo = a
	}
	opts := []dgs.QueryOption{dgs.WithAlgorithm(algo)}
	cfg := fmt.Sprintf("algo=%s", algo)
	if req.Theta != nil {
		opts = append(opts, dgs.WithPushTheta(*req.Theta))
		cfg += fmt.Sprintf(";theta=%g", *req.Theta)
	}
	if req.NoPush {
		opts = append(opts, dgs.WithPushDisabled())
		cfg += ";nopush"
	}
	if req.GraphIsDAG {
		opts = append(opts, dgs.WithGraphIsDAG())
		cfg += ";dag"
	}
	if req.Trace {
		// Not part of the cache key: traced queries never touch the
		// cache, so the trace knob cannot split otherwise-equal entries.
		opts = append(opts, dgs.WithTrace())
	}
	return &compiled{
		reqQ:        reqQ,
		q:           q,
		perm:        perm,
		opts:        opts,
		algo:        algo,
		key:         canon + "\x00" + cfg,
		wantMatches: req.IncludeMatches,
		wantTrace:   req.Trace,
	}, nil
}

// Query answers one request: cache, coalesce, admit, evaluate. Error
// kinds: *RequestError (malformed), ErrOverload (shed), ctx errors
// (deadline/cancel), anything else is an evaluation failure.
func (s *Server) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	atomic.AddInt64(&s.nQueries, 1)
	c, err := s.compile(req)
	if err != nil {
		atomic.AddInt64(&s.nErrors, 1)
		return nil, err
	}
	if req.Explain {
		// Plan-only: nothing is evaluated, admitted or cached.
		pi, err := s.dep.Explain(c.reqQ)
		if err != nil {
			return nil, s.countErr(err)
		}
		return &QueryResponse{
			Algo:    c.algo.String(),
			Version: s.dep.Version(),
			Plan:    pi,
		}, nil
	}
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	defer func() { s.observeQuery(req, c, time.Since(start)) }()

	useCache := s.cache != nil && !req.NoCache && !req.Trace
	if useCache {
		if res, age, ok := s.cache.get(c.key, s.dep.Version()); ok {
			atomic.AddInt64(&s.nHits, 1)
			s.hitAge.Observe(age.Seconds())
			return s.respond(c, res, true, false), nil
		}
		atomic.AddInt64(&s.nMisses, 1)
	}
	if req.Trace {
		// Traced path: lead unconditionally (no coalescing — followers
		// would share a trace that is not theirs) and keep the result
		// out of the cache, where its span tree would leak into
		// untraced responses.
		res, err := s.lead(ctx, c)
		if err != nil {
			return nil, s.countErr(err)
		}
		return s.respond(c, res, false, false), nil
	}
	if !useCache {
		// Raw path: no coalescing either (NoCache is the measurement
		// escape hatch; sharing another query's result would defeat it).
		res, err := s.lead(ctx, c)
		if err != nil {
			return nil, s.countErr(err)
		}
		return s.respond(c, res, false, false), nil
	}
	for attempt := 0; ; attempt++ {
		fk := flightKey{key: c.key, version: s.dep.Version()}
		f, leader := s.fl.join(fk)
		if !leader {
			atomic.AddInt64(&s.nCoalesced, 1)
			select {
			case <-f.done:
				if f.err == nil {
					return s.respond(c, f.res, false, true), nil
				}
				// The leader died of its own cancellation; if our deadline
				// still stands, run the query ourselves.
				if isCtxErr(f.err) && ctx.Err() == nil && attempt < 4 {
					continue
				}
				return nil, s.countErr(f.err)
			case <-ctx.Done():
				return nil, s.countErr(ctx.Err())
			}
		}
		res, err := s.lead(ctx, c)
		s.fl.settle(fk, f, res, err)
		if err != nil {
			return nil, s.countErr(err)
		}
		s.cache.put(c.key, res)
		return s.respond(c, res, false, false), nil
	}
}

// observeQuery feeds the latency histogram and the slow-query log for
// one executed (non-Explain) query.
func (s *Server) observeQuery(req QueryRequest, c *compiled, elapsed time.Duration) {
	s.querySeconds.Observe(elapsed.Seconds())
	if s.opts.SlowQuery <= 0 || elapsed < s.opts.SlowQuery {
		return
	}
	atomic.AddInt64(&s.nSlow, 1)
	s.logger.Warn("slow query",
		"elapsed_ms", elapsed.Milliseconds(),
		"threshold_ms", s.opts.SlowQuery.Milliseconds(),
		"algo", c.algo.String(),
		"pattern_nodes", c.q.NumNodes(),
		"traced", req.Trace,
		"graph_version", s.dep.Version())
}

// lead runs one admitted evaluation.
func (s *Server) lead(ctx context.Context, c *compiled) (*dgs.Result, error) {
	if err := s.gate.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.release()
	return s.dep.Query(ctx, c.q, c.opts...)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// countErr buckets an error into the overload/deadline/error counters.
func (s *Server) countErr(err error) error {
	switch {
	case errors.Is(err, ErrOverload):
		atomic.AddInt64(&s.nRejected, 1)
	case errors.Is(err, context.DeadlineExceeded):
		atomic.AddInt64(&s.nDeadline, 1)
	default:
		atomic.AddInt64(&s.nErrors, 1)
	}
	return err
}

// respond renders a result. Results are immutable and may be shared by
// many responses; only read from them.
func (s *Server) respond(c *compiled, res *dgs.Result, cached, coalesced bool) *QueryResponse {
	resp := &QueryResponse{
		OK:        res.Match.Ok(),
		Pairs:     res.Match.NumPairs(),
		Version:   res.Version,
		Algo:      c.algo.String(),
		Cached:    cached,
		Coalesced: coalesced,
		Stats:     toQueryStats(res.Stats),
	}
	if c.wantMatches {
		resp.Matches = matchesOf(c, res.Match)
	}
	if c.wantTrace {
		resp.Trace = res.Trace
	}
	return resp
}

// matchesOf renders the full relation keyed by the REQUEST's node names:
// the result is indexed by the canonical pattern's nodes (possibly
// computed for a differently-named equivalent request), so each request
// node reads its match set through the canonical mapping.
func matchesOf(c *compiled, m *dgs.Match) map[string][]dgs.NodeID {
	out := make(map[string][]dgs.NodeID, c.reqQ.NumNodes())
	for u := 0; u < c.reqQ.NumNodes(); u++ {
		out[c.reqQ.NodeName(dgs.QNode(u))] = append([]dgs.NodeID(nil), m.MatchesOf(dgs.QNode(c.perm[u]))...)
	}
	return out
}

// ApplyOp is one edge update of an /apply batch.
type ApplyOp struct {
	// Del marks a deletion; otherwise the op inserts.
	Del bool `json:"del,omitempty"`
	// V and W are the edge's source and target node IDs.
	V dgs.NodeID `json:"v"`
	W dgs.NodeID `json:"w"`
}

// ApplyRequest is an edge-update batch, as posted to /apply.
type ApplyRequest struct {
	Ops       []ApplyOp `json:"ops"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
}

// ApplyResponse reports an applied batch.
type ApplyResponse struct {
	// Deletions and Insertions count the batch's net distributed ops.
	Deletions  int `json:"deletions"`
	Insertions int `json:"insertions"`
	// Version is the graph version after the batch.
	Version uint64 `json:"version"`
	// Reevaluated counts standing queries that fell back to full
	// re-evaluation.
	Reevaluated int `json:"reevaluated"`
}

// Apply validates and applies one edge-update batch. The graph-version
// bump implicitly invalidates every cached result computed before it.
func (s *Server) Apply(ctx context.Context, req ApplyRequest) (*ApplyResponse, error) {
	if len(req.Ops) == 0 {
		return nil, badRequest("empty ops batch")
	}
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ops := make([]dgs.EdgeOp, len(req.Ops))
	for i, op := range req.Ops {
		if op.Del {
			ops[i] = dgs.DeleteOp(op.V, op.W)
		} else {
			ops[i] = dgs.InsertOp(op.V, op.W)
		}
	}
	st, err := s.dep.Apply(ctx, ops)
	if err != nil {
		// Validation failures (absent edge, unknown node) fail before
		// anything is distributed and are the caller's fault; a closing
		// deployment, a lost site, or a mid-distribution failure is
		// server-side.
		if st.Deletions == 0 && st.Insertions == 0 && !isCtxErr(err) &&
			!errors.Is(err, dgs.ErrClosed) && !errors.Is(err, dgs.ErrSiteLost) {
			atomic.AddInt64(&s.nErrors, 1)
			return nil, badRequest("%v", err)
		}
		return nil, s.countErr(err)
	}
	atomic.AddInt64(&s.nApplies, 1)
	return &ApplyResponse{
		Deletions:   st.Deletions,
		Insertions:  st.Insertions,
		Version:     s.dep.Version(),
		Reevaluated: st.Reevaluated,
	}, nil
}

// Counters is a consistent-enough snapshot of the serving metrics,
// exported alongside the per-query dgs.Stats.
type Counters struct {
	// Queries counts /query requests; Hits/Misses partition the cached
	// ones, Coalesced counts queries served by joining another's flight.
	Queries   int64 `json:"queries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Rejected counts overload sheds; Deadline counts per-query deadline
	// expiries; Errors counts malformed requests and evaluation failures.
	Rejected int64 `json:"rejected"`
	Deadline int64 `json:"deadline"`
	Errors   int64 `json:"errors"`
	// Applies counts successfully applied update batches.
	Applies int64 `json:"applies"`
	// InFlight and QueueDepth are live admission gauges.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	// CacheEntries is the live cache size; GraphVersion the deployment's
	// current graph version.
	CacheEntries int    `json:"cache_entries"`
	GraphVersion uint64 `json:"graph_version"`
}

// HitRate reports hits / (hits + misses), 0 when no cached lookup ran.
func (c Counters) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// Counters snapshots the serving metrics.
func (s *Server) Counters() Counters {
	c := Counters{
		Queries:      atomic.LoadInt64(&s.nQueries),
		Hits:         atomic.LoadInt64(&s.nHits),
		Misses:       atomic.LoadInt64(&s.nMisses),
		Coalesced:    atomic.LoadInt64(&s.nCoalesced),
		Rejected:     atomic.LoadInt64(&s.nRejected),
		Deadline:     atomic.LoadInt64(&s.nDeadline),
		Errors:       atomic.LoadInt64(&s.nErrors),
		Applies:      atomic.LoadInt64(&s.nApplies),
		InFlight:     s.gate.inFlight(),
		QueueDepth:   s.gate.queueDepth(),
		GraphVersion: s.dep.Version(),
	}
	if s.cache != nil {
		c.CacheEntries = s.cache.len()
	}
	return c
}
