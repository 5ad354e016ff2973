package main

// One run of one workload: inputs, set-ups, the untraced timed phase and
// its oracle check, the end-to-end metrics; then, for -trace 1, the
// layer probes and a traced replay of the first quarter of the op stream
// on a fresh set-up.

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// runRecord is one run's entry in the output file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	WallS    float64 `json:"wall_s"` // the whole run, inputs to teardown
	// Ops counts the timed phase's ops by kind; Attempted is their sum and
	// Failed the ones that errored, timed out or were refused.
	Ops       map[string]int `json:"ops"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	// Checked answers were compared with the oracle, over OracleKeys
	// distinct (pattern, version) simulations; Wrong of them differed.
	Checked    int       `json:"checked"`
	OracleKeys int       `json:"oracle_keys"`
	Wrong      int       `json:"wrong"`
	SetupsS    []float64 `json:"setups_s"`
	// Invalid says why the run's numbers must not be used (the open-loop
	// generator ran late; a trace disagreed with its query's Stats).
	Invalid  string    `json:"invalid,omitempty"`
	EndToEnd metricSet `json:"end_to_end"`
	PerLayer metricSet `json:"per_layer,omitempty"`

	spans []span
}

// maxLagP95 is how late the open-loop generator may run at p95 before
// the run stops being an open loop at the stated rate.
const maxLagP95 = 5 * time.Millisecond

// runWorkload measures one workload once.
func runWorkload(ctx context.Context, h *host, s spec, seed int64, seconds float64, traced bool, log io.Writer) (*runRecord, error) {
	t0 := time.Now()
	// peak_rss_mb reads high-water marks; when one invocation runs several
	// workloads, start each from the benchmark process's own floor. Linux
	// resets VmHWM on a write of 5 to clear_refs; where that is refused the
	// metric is an over-estimate, as it was before.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	rec := &runRecord{Workload: s.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Ops: make(map[string]int), EndToEnd: make(metricSet)}
	in, err := generate(s, seed, seconds)
	if err != nil {
		return nil, err
	}
	if s.Daemons > 0 {
		if err := h.buildDaemons(ctx); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(log, "%s: seed %d, %v, %d sites (%s), inputs in %.1fs\n",
		s.Name, seed, in.g, s.Sites, s.Part, time.Since(t0).Seconds())

	// Set up several times; the last set-up is the one measured.
	var sys *system
	var timings []setupTimings
	for i := 0; i < s.Setups; i++ {
		if sys != nil {
			sys.close()
		}
		if sys, err = setUp(ctx, h, in); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		timings = append(timings, sys.timings)
		rec.SetupsS = append(rec.SetupsS, sys.timings.total.Seconds())
	}
	defer func() { sys.close() }()

	ph, err := runPhase(ctx, sys, in.ops, seconds)
	if err != nil {
		return nil, err
	}
	v, err := checkResults(sys, ph.results)
	if err != nil {
		return nil, err
	}
	rec.Checked, rec.OracleKeys, rec.Wrong = v.Checked, v.Keys, v.Wrong
	if v.Wrong > 0 {
		fmt.Fprintf(log, "%s: WRONG RESULT: %s\n", s.Name, v.First)
	}
	endToEndOf(rec, ph)
	if lag := lagP95(ph.results); s.RateHz > 0 && lag > maxLagP95 {
		rec.Invalid = fmt.Sprintf("open-loop generator lag p95 %.2f ms exceeds %v", ms(lag), maxLagP95)
	}

	if traced {
		rec.PerLayer = make(metricSet)
		sys.close()
		if err := tracedPass(ctx, h, in, rec, ph, timings); err != nil {
			return nil, err
		}
	}
	rec.WallS = time.Since(t0).Seconds()
	return rec, nil
}

// checkResults runs the oracle over the answers of rs and over the
// system's standing queries, which stand at the last version rs reached.
func checkResults(sys *system, rs []result) (verdict, error) {
	var final uint64
	for _, r := range rs {
		if r.Err == nil {
			final = max(final, r.Version)
		}
	}
	return check(sys.in, rs, sys.watches, final)
}

// latencies splits a phase's successful ops into query and update
// latencies, in ms.
func latencies(rs []result, keep func(result) bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Err == nil && keep(r) {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}

func isQuery(r result) bool  { return r.Kind == opQuery }
func isUpdate(r result) bool { return r.Kind != opQuery }

// lagP95 is how late the generator ran, p95 over the phase.
func lagP95(rs []result) time.Duration {
	lags := make([]float64, len(rs))
	for i, r := range rs {
		lags[i] = float64(r.Lag)
	}
	return time.Duration(quantile(sorted(lags), 0.95))
}

// endToEndOf derives the end-to-end metrics from the untraced phase.
func endToEndOf(rec *runRecord, ph *phase) {
	put := func(name string, v float64, n int) {
		if d, _ := findMetric(endToEnd, name); d.on(rec.Workload) {
			rec.EndToEnd.put(endToEnd, name, v, n)
		}
	}
	var dataBytes, wireBytes int64
	evaluated, queriesDone := 0, 0
	for _, r := range ph.results {
		rec.Ops[r.Kind.String()]++
		rec.Attempted++
		if r.Err != nil {
			rec.Failed++
			continue
		}
		if r.Kind == opQuery {
			queriesDone++
			if r.Evaluated {
				evaluated++
				dataBytes += r.Stats.DataBytes
				wireBytes += r.Stats.WireBytes
			}
		}
	}
	put("setup_s", median(rec.SetupsS), len(rec.SetupsS))
	q := latencies(ph.results, isQuery)
	put("query_p50_ms", median(q), len(q))
	if v, ok := p95(q); ok {
		put("query_p95_ms", v, len(q))
	}
	put("query_qps", float64(queriesDone)/ph.elapsed.Seconds(), queriesDone)
	u := latencies(ph.results, isUpdate)
	if len(u) > 0 {
		put("apply_p50_ms", median(u), len(u))
	}
	if v, ok := p95(u); ok {
		put("apply_p95_ms", v, len(u))
	}
	put("cpu_s_per_op", ph.cpu.totalCPU()/float64(rec.Attempted), rec.Attempted)
	if evaluated > 0 {
		put("ds_bytes_per_query", float64(dataBytes)/float64(evaluated), evaluated)
		if dataBytes > 0 {
			put("wire_bytes_per_payload_byte", float64(wireBytes)/float64(dataBytes), evaluated)
		}
	}
	put("peak_rss_mb", ph.peakRSSMB, 1)
	put("failed_ops_share", float64(rec.Failed)/float64(rec.Attempted), rec.Attempted)
	put("wrong_results", float64(rec.Wrong), rec.Checked)
}
