package serve

// Observability conformance for the gateway: the /stats JSON shape is
// pinned (a golden key set — external dashboards parse these names),
// the /metrics exposition must agree with the /stats counters it
// mirrors, and a trace:true request returns a span tree whose totals
// are the response's own stats, decomposed.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dgs/internal/dgpm"
)

// TestStatsJSONGolden pins the /stats field names. Renaming or
// dropping a key is a breaking API change; this test is the tripwire.
func TestStatsJSONGolden(t *testing.T) {
	w := newWorld(t, Options{})
	if _, err := w.srv.Query(context.Background(), QueryRequest{Pattern: w.pattern()}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"applies", "cache_entries", "cache_size", "coalesced", "deadline",
		"errors", "failovers", "fragments", "graph_version", "hit_rate",
		"hits", "in_flight", "max_in_flight", "max_queue", "misses",
		"partition_strategy", "queries", "queue_depth", "rejected",
		"remote", "sites", "uptime_ms",
	}
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("/stats keys changed:\n got %v\nwant %v", got, want)
	}
}

// scrape parses a Prometheus text exposition into name -> value for
// the plain (non-histogram-series) sample lines.
func scrape(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

// TestMetricsAgreeWithStats runs traffic that touches every counter
// path reachable in-process, then checks GET /metrics against the
// Counters snapshot — same atomics, so exact equality is required —
// and that the merged deployment registry (dgs_failovers_total and
// friends) is on the same page.
func TestMetricsAgreeWithStats(t *testing.T) {
	w := newWorld(t, Options{})
	ctx := context.Background()
	for i := 0; i < 3; i++ { // 1 miss + 2 hits
		if _, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.srv.Query(ctx, QueryRequest{Pattern: "not a pattern"}); err == nil {
		t.Fatal("malformed pattern accepted")
	}

	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	vals := scrape(t, rec.Body.String())
	c := w.srv.Counters()
	for name, want := range map[string]int64{
		"dgs_gw_queries_total":      c.Queries,
		"dgs_gw_cache_hits_total":   c.Hits,
		"dgs_gw_cache_misses_total": c.Misses,
		"dgs_gw_errors_total":       c.Errors,
		"dgs_gw_cache_entries":      int64(c.CacheEntries),
	} {
		got, ok := vals[name]
		if !ok {
			t.Fatalf("metric %s missing from exposition", name)
		}
		if int64(got) != want {
			t.Fatalf("%s = %v, /stats says %d", name, got, want)
		}
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", c.Hits, c.Misses)
	}
	// The deployment registry is merged into the same page.
	for _, name := range []string{"dgs_failovers_total", "dgs_queries_total", "dgs_graph_version"} {
		if _, ok := vals[name]; !ok {
			t.Fatalf("deployment metric %s missing from gateway exposition", name)
		}
	}
	if got := vals["dgs_failovers_total"]; int64(got) != w.dep.Failovers() {
		t.Fatalf("dgs_failovers_total = %v, deployment says %d", got, w.dep.Failovers())
	}
	// The sites run in this process, so its engine counts are on the page.
	builds, restores := dgpm.EngineCounts()
	if vals["dgs_engine_builds_total"] != float64(builds) || vals["dgs_engine_restores_total"] != float64(restores) {
		t.Fatalf("engine builds/restores on the page %v/%v, process %d/%d",
			vals["dgs_engine_builds_total"], vals["dgs_engine_restores_total"], builds, restores)
	}
	if builds == 0 {
		t.Fatal("the missed query built no engine")
	}
}

// TestTraceRequest exercises the trace:true request path end to end
// in-process: the response carries a complete span tree, the traced
// query bypasses the cache in both directions, and cached responses
// never carry a trace.
func TestTraceRequest(t *testing.T) {
	w := newWorld(t, Options{})
	ctx := context.Background()

	r1, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Coalesced {
		t.Fatalf("traced query reported cached=%v coalesced=%v", r1.Cached, r1.Coalesced)
	}
	if r1.Trace == nil {
		t.Fatal("trace:true response has no trace")
	}
	if !r1.Trace.Complete {
		t.Fatal("in-process trace incomplete")
	}
	if r1.Trace.TraceID == 0 {
		t.Fatal("trace ID is zero")
	}
	_, msgsIn, _, _, _, rounds := r1.Trace.Totals()
	if msgsIn == 0 && rounds == 0 {
		t.Fatal("trace recorded no activity at all")
	}
	if rounds != r1.Stats.Rounds {
		t.Fatalf("trace rounds %d != stats rounds %d", rounds, r1.Stats.Rounds)
	}

	// The traced evaluation must not have populated the cache...
	r2, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern()})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Fatal("untraced query hit an entry only a traced run could have written")
	}
	if r2.Trace != nil {
		t.Fatal("untraced response carries a trace")
	}
	// ...and a traced request must not read it either.
	r3, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("traced query served from cache")
	}
	if r3.Trace == nil || r3.Trace.TraceID == r1.Trace.TraceID {
		t.Fatalf("second traced run: trace %+v", r3.Trace)
	}
	if r3.Pairs != r1.Pairs || r3.OK != r1.OK {
		t.Fatalf("traced runs disagree: %d/%v vs %d/%v", r3.Pairs, r3.OK, r1.Pairs, r1.OK)
	}

	// The JSON rendering round-trips the span tree.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r1); err != nil {
		t.Fatal(err)
	}
	var back QueryResponse
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace == nil || back.Trace.TraceID != r1.Trace.TraceID {
		t.Fatalf("trace lost in JSON round-trip: %+v", back.Trace)
	}
}

// TestSlowQueryLog sets a zero-distance threshold so every query is
// slow, and checks the structured log line and counter.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	w := newWorld(t, Options{SlowQuery: time.Nanosecond, Logger: logger})
	if _, err := w.srv.Query(context.Background(), QueryRequest{Pattern: w.pattern()}); err != nil {
		t.Fatal(err)
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("slow-query log %q: %v", buf.String(), err)
	}
	if line["msg"] != "slow query" {
		t.Fatalf("log msg %q", line["msg"])
	}
	for _, k := range []string{"elapsed_ms", "algo", "graph_version"} {
		if _, ok := line[k]; !ok {
			t.Fatalf("slow-query log missing %q: %v", k, line)
		}
	}
	vals := scrapeRegistry(t, w)
	if vals["dgs_gw_slow_queries_total"] != 1 {
		t.Fatalf("dgs_gw_slow_queries_total = %v, want 1", vals["dgs_gw_slow_queries_total"])
	}
	if vals["dgs_gw_query_seconds_count"] != 1 {
		t.Fatalf("dgs_gw_query_seconds_count = %v, want 1", vals["dgs_gw_query_seconds_count"])
	}
}

func scrapeRegistry(t *testing.T, w *world) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return scrape(t, rec.Body.String())
}
