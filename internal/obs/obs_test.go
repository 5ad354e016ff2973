package obs

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("obs_test_events_total", "events")
	g := r.Gauge("obs_test_depth", "depth")
	c.Inc()
	c.Add(4)
	c.Add(-2) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("obs_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.02, 0.5, 1.0, 3.0} {
		h.Observe(v)
	}
	// le="0.01" holds 0.005 and the boundary value 0.01 (inclusive
	// upper bounds); le="0.1" adds 0.02; le="1" adds 0.5 and 1.0; 3.0
	// lands in +Inf only.
	bounds, counts := h.cumulative()
	if !reflect.DeepEqual(bounds, []float64{0.01, 0.1, 1}) {
		t.Fatalf("bounds = %v", bounds)
	}
	if want := []int64{2, 3, 5}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("cumulative counts = %v, want %v", counts, want)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.02+0.5+1.0+3.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestExpositionGolden pins the exact Prometheus text output: HELP and
// TYPE lines, integral formatting of whole numbers, and the cumulative
// histogram family.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("golden_events_total", "Events processed.")
	g := r.Gauge("golden_depth", "Queue depth.")
	h := r.Histogram("golden_wait_seconds", "Wait time.", []float64{0.5, 2})
	r.GaugeFunc("golden_version", "Version.", func() float64 { return 3 })
	c.Add(12)
	g.Set(-2)
	h.Observe(0.25)
	h.Observe(1.5)
	h.Observe(9)

	want := strings.Join([]string{
		"# HELP golden_events_total Events processed.",
		"# TYPE golden_events_total counter",
		"golden_events_total 12",
		"# HELP golden_depth Queue depth.",
		"# TYPE golden_depth gauge",
		"golden_depth -2",
		"# HELP golden_wait_seconds Wait time.",
		"# TYPE golden_wait_seconds histogram",
		`golden_wait_seconds_bucket{le="0.5"} 1`,
		`golden_wait_seconds_bucket{le="2"} 2`,
		`golden_wait_seconds_bucket{le="+Inf"} 3`,
		"golden_wait_seconds_sum 10.75",
		"golden_wait_seconds_count 3",
		"# HELP golden_version Version.",
		"# TYPE golden_version gauge",
		"golden_version 3",
		"",
	}, "\n")
	if got := string(r.AppendText(nil)); got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestHandlerMergesAndRefusesNonGET(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("handler_a_total", "a").Inc()
	b.Counter("handler_b_total", "b").Add(2)
	h := Handler(a, b)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "handler_a_total 1\n") || !strings.Contains(body, "handler_b_total 2\n") {
		t.Fatalf("merged body missing samples:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics: %d, want 405", rec.Code)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("panics_dup_total", "x")
	mustPanic("duplicate", func() { r.Counter("panics_dup_total", "x") })
	mustPanic("camelCase", func() { r.Counter("panicsCamel", "x") })
	mustPanic("leading digit", func() { r.Counter("0bad", "x") })
	mustPanic("unsorted buckets", func() { r.Histogram("panics_hist", "x", []float64{2, 1}) })
	r2 := NewRegistry()
	r2.Counter("panics_dup_total", "x")
	mustPanic("cross-registry handler dup", func() { Handler(r, r2) })
}

func TestValidMetricName(t *testing.T) {
	for name, want := range map[string]bool{
		"dgs_queries_total": true,
		"a1_b2":             true,
		"":                  false,
		"_leading":          false,
		"UpperCase":         false,
		"has-dash":          false,
		"9lead":             false,
	} {
		if got := ValidMetricName(name); got != want {
			t.Errorf("ValidMetricName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestSpanRecorder(t *testing.T) {
	r := NewSpanRecorder(42)
	// Site 3: one Recv in round 0 recording 1 round, with one send,
	// then a run of two Recvs in round 1.
	r.RecordOut(3, 10)
	r.RecordIn(3, 1, 100, 5*time.Millisecond, 1)
	r.RecordIn(3, 2, 50, 2*time.Millisecond, 0)
	// Coordinator: driver-level round then a Recv.
	r.AddRounds(CoordinatorSite, 1)
	r.RecordIn(CoordinatorSite, 1, 7, time.Millisecond, 0)

	got := r.Snapshot()
	want := []SiteTrace{
		{Site: CoordinatorSite, Spans: []RoundSpan{
			{Round: 0, Rounds: 1},
			{Round: 1, BusyNs: int64(time.Millisecond), MsgsIn: 1, BytesIn: 7},
		}},
		{Site: 3, Spans: []RoundSpan{
			{Round: 0, BusyNs: int64(5 * time.Millisecond), MsgsIn: 1, MsgsOut: 1, BytesIn: 100, BytesOut: 10, Rounds: 1},
			{Round: 1, BusyNs: int64(2 * time.Millisecond), MsgsIn: 2, BytesIn: 50},
		}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v\nwant %+v", got, want)
	}

	qt := &QueryTrace{TraceID: r.ID(), Complete: true, Sites: got}
	busy, msgsIn, msgsOut, bytesIn, bytesOut, rounds := qt.Totals()
	if busy != 8*time.Millisecond || msgsIn != 4 || msgsOut != 1 || bytesIn != 157 || bytesOut != 10 || rounds != 2 {
		t.Fatalf("totals = %v %d %d %d %d %d", busy, msgsIn, msgsOut, bytesIn, bytesOut, rounds)
	}
	if fl := qt.Flame(); !strings.Contains(fl, "coordinator") || !strings.Contains(fl, "site 3") {
		t.Fatalf("flame summary:\n%s", fl)
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	in := []SiteTrace{
		{Site: CoordinatorSite, Spans: []RoundSpan{{Round: 0, BusyNs: 123, MsgsIn: 1, BytesIn: 9, Rounds: 2}}},
		{Site: 0, Spans: nil},
		{Site: 5, Spans: []RoundSpan{
			{Round: 1, MsgsOut: 4, BytesOut: 77},
			{Round: 3, BusyNs: 1 << 40, MsgsIn: 1 << 33, Rounds: -1},
		}},
	}
	b := AppendSpans(nil, in)
	out, err := DecodeSpans(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Decode materializes empty span slices; normalize before compare.
	if len(out) == 3 && out[1].Spans != nil && len(out[1].Spans) == 0 {
		out[1].Spans = nil
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in %+v\nout %+v", in, out)
	}

	// Truncations and trailing garbage must error, never panic.
	for i := 0; i < len(b); i++ {
		if _, err := DecodeSpans(b[:i]); err == nil {
			t.Fatalf("truncation at %d decoded", i)
		}
	}
	if _, err := DecodeSpans(append(b, 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	// A hostile length claim must be rejected before allocation.
	if _, err := DecodeSpans([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("hostile site count decoded")
	}
}
