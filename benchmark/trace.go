package main

// The traced pass: after the untraced phases, the layer probes and a
// replay of the first quarter of the op stream with dgs.WithTrace() on a
// fresh set-up. The benchmark records spans around its own calls —
// op → serve.http → dgs.query / dgs.apply → site.busy_max +
// cluster.residual — in memory and writes them out when it ends; spans
// inside the program are a later issue. Nothing measured here feeds an
// end-to-end metric.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one line of trace-<workload>.jsonl. The spans of one op share
// Op; Parent is the Span id of the enclosing span, 0 for the root. Times
// are nanoseconds since the replay started. A span's self time is its
// duration minus its children's.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Span     int    `json:"span"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// busyOf reports the busiest site's compute time and the summed busy
// time of an evaluation: Stats.MaxSiteBusy where the library reports it,
// the trace's per-site sums otherwise (the gateway's stats carry no busy
// time).
func busyOf(r result) (maxBusy, sumBusy time.Duration) {
	maxBusy = r.Stats.MaxSiteBusy
	if r.Trace == nil {
		return maxBusy, 0
	}
	for _, st := range r.Trace.Sites {
		var site int64
		for _, sp := range st.Spans {
			site += sp.BusyNs
		}
		sumBusy += time.Duration(site)
		if r.Stats.MaxSiteBusy == 0 && time.Duration(site) > maxBusy {
			maxBusy = time.Duration(site)
		}
	}
	return maxBusy, sumBusy
}

// explained is the part of an op's latency the program's own report
// accounts for: the evaluation's response time, or an update's
// distribution plus maintenance time.
func explained(r result) (d time.Duration, ok bool) {
	switch {
	case r.Err != nil:
		return 0, false
	case r.Kind == opQuery:
		return r.Stats.Wall, r.Evaluated
	default:
		d = r.Apply.Delta.Wall + r.Apply.Maintenance.Wall
		return d, d > 0
	}
}

// spansOf lays one op's spans out. Child spans are anchored at their
// parent's start: only durations are measured from outside, not where
// inside the parent the time was spent.
func spansOf(workload string, r result, http bool) []span {
	id := 0
	var out []span
	add := func(parent int, name string, start, end time.Duration) int {
		id++
		out = append(out, span{Workload: workload, Op: r.Op, Span: id, Parent: parent, Name: name,
			StartNs: start.Nanoseconds(), EndNs: end.Nanoseconds()})
		return id
	}
	parent, start := add(0, "op", r.Due, r.End), r.Due
	if http {
		parent, start = add(parent, "serve.http", r.Sent, r.End), r.Sent
	}
	d, ok := explained(r)
	if !ok {
		return out
	}
	if start+d > r.End { // clock skew between the two processes' timers
		d = r.End - start
	}
	if r.Kind != opQuery {
		add(parent, "dgs.apply", start, start+d)
		return out
	}
	q := add(parent, "dgs.query", start, start+d)
	if busy, _ := busyOf(r); busy > 0 {
		if busy > d {
			busy = d
		}
		add(q, "site.busy_max", start, start+busy)
		add(q, "cluster.residual", start+busy, start+d)
	}
	return out
}

// traceAgrees checks that a trace's spans sum to its query's Stats — the
// property that makes the trace a decomposition and not an estimate.
func traceAgrees(r result) error {
	if !r.Trace.Complete {
		return fmt.Errorf("op %d: incomplete trace", r.Op)
	}
	_, _, _, bytesIn, bytesOut, rounds := r.Trace.Totals()
	want := r.Stats.DataBytes + r.Stats.ControlBytes + r.Stats.ResultBytes
	if bytesIn != want || bytesOut != want || rounds != r.Stats.Rounds {
		return fmt.Errorf("op %d: trace totals bytes in=%d out=%d rounds=%d, stats bytes=%d rounds=%d",
			r.Op, bytesIn, bytesOut, rounds, want, r.Stats.Rounds)
	}
	return nil
}

// tracedPass measures the per-layer metrics.
func tracedPass(ctx context.Context, h *host, in *inputs, rec *runRecord, untraced *phase, timings []setupTimings) error {
	s := in.spec
	put := func(name string, v float64, n int) {
		if d, _ := findMetric(perLayer, name); d.on(s.Name) {
			rec.PerLayer.put(perLayer, name, v, n)
		}
	}
	if err := probeLayers(ctx, in, put); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	// What the set-ups and the untraced phase already observed.
	if !s.Gateway {
		var deploy, watch []float64
		for _, t := range timings {
			deploy = append(deploy, ms(t.deploy))
			watch = append(watch, ms(t.watch))
		}
		put("dgs.deploy_ms", median(deploy), len(deploy))
		put("dgpm.watch_register_ms", median(watch), len(watch))
	}
	if total := untraced.cpu.totalCPU(); total > 0 {
		put("tcpnet.daemon_cpu_share", untraced.cpu.daemonCPU/total, 1)
	}
	if s.Gateway {
		gatewayLayers(untraced, put)
	}
	untracedP50 := rec.EndToEnd["query_p50_ms"].Value
	if ref, ok := rec.PerLayer["cluster.inproc_query_p50_ms"]; ok {
		put("tcpnet.overhead_ms", untracedP50-ref.Value, ref.N)
	}

	// The replay: the first quarter of what the untraced phase executed,
	// on a system in the state that phase started from.
	n := len(untraced.results) / 4
	ops := make([]op, n)
	for i := range ops {
		ops[i] = in.ops[i]
		// A traced request bypasses the gateway's cache, so tracing the
		// stream itself would turn every hit into a miss: over HTTP the
		// stream replays unchanged and traced queries follow it.
		ops[i].Trace = !s.Gateway && ops[i].Kind == opQuery
	}
	sys, err := setUp(ctx, h, in)
	if err != nil {
		return fmt.Errorf("replay set-up: %w", err)
	}
	defer sys.close()
	ph, err := runPhase(ctx, sys, ops, rec.Seconds)
	if err != nil {
		return err
	}
	replayed := ph.results
	var extras []result
	if s.Gateway {
		var traced []op
		for i := range in.catalog {
			traced = append(traced, op{Kind: opQuery, Pat: i, Trace: true})
		}
		extras = runClosed(ctx, sys, traced, time.Hour, ph.start)
		for i := range extras {
			extras[i].Op = n + i
		}
	}
	all := append(append([]result(nil), replayed...), extras...)

	for _, r := range all {
		if r.Err != nil {
			return fmt.Errorf("replay op %d (%s): %w", r.Op, r.Kind, r.Err)
		}
		if r.Trace != nil {
			if err := traceAgrees(r); err != nil && rec.Invalid == "" {
				rec.Invalid = err.Error()
			}
		}
		rec.spans = append(rec.spans, spansOf(s.Name, r, s.Gateway)...)
	}
	v, err := checkResults(sys, all)
	if err != nil {
		return err
	}
	rec.Checked += v.Checked
	rec.OracleKeys += v.Keys
	rec.Wrong += v.Wrong

	replayLayers(s, all, ph.frames, put)

	// Tracing's cost: the same ops, traced against untraced. Over HTTP
	// the traced queries are all evaluated, so they compare with the
	// untraced phase's evaluated ones.
	tracedLat := latencies(replayed, isQuery)
	plainLat := latencies(untraced.results[:n], isQuery)
	if s.Gateway {
		tracedLat = latencies(extras, isQuery)
		plainLat = latencies(untraced.results, func(r result) bool { return r.Kind == opQuery && r.Evaluated })
	}
	if len(tracedLat) > 0 && len(plainLat) > 0 {
		plain := median(plainLat)
		put("obs.trace_overhead_pct", (median(tracedLat)-plain)/plain*100, len(tracedLat))
	}
	return nil
}

// gatewayLayers reads the serving layer off the untraced phase: the
// gateway's own counters and the client's latencies split by what the
// response said happened.
func gatewayLayers(ph *phase, put func(string, float64, int)) {
	c := ph.gw
	put("serve.hit_rate", c.HitRate(), int(c.Hits+c.Misses))
	if c.Queries > 0 {
		put("serve.coalesced_share", float64(c.Coalesced)/float64(c.Queries), int(c.Queries))
	}
	put("serve.rejected", float64(c.Rejected), int(c.Queries))
	hit := latencies(ph.results, func(r result) bool { return r.Kind == opQuery && r.Cached })
	miss := latencies(ph.results, func(r result) bool { return r.Kind == opQuery && r.Evaluated })
	put("serve.hit_p50_ms", median(hit), len(hit))
	put("serve.miss_p50_ms", median(miss), len(miss))
	var overhead []float64
	for _, r := range ph.results {
		if r.Err == nil && r.Kind == opQuery && r.Evaluated {
			overhead = append(overhead, ms(r.latency()-r.Stats.Wall))
		}
	}
	put("serve.http_overhead_ms", median(overhead), len(overhead))
	put("loadgen.lag_p95_ms", ms(lagP95(ph.results)), len(ph.results))
}

// replayLayers derives the per-layer metrics the replayed ops report:
// Stats and Trace of every evaluated query, ApplyStats of every update.
func replayLayers(s spec, rs []result, frames int64, put func(string, float64, int)) {
	var busyMax, busySum, residual, rounds, msgs, wireBytes, unexplained []float64
	var wallSum, busyMaxSum time.Duration
	var msgsSum, roundsSum, tracedMsgs int64
	queries := 0
	for _, r := range rs {
		if d, ok := explained(r); ok {
			unexplained = append(unexplained, ms(r.latency()-d))
		}
		if r.Kind != opQuery {
			continue
		}
		queries++
		if !r.Evaluated {
			continue
		}
		rounds = append(rounds, float64(r.Stats.Rounds))
		msgs = append(msgs, float64(r.Stats.DataMsgs))
		wireBytes = append(wireBytes, float64(r.Stats.WireBytes))
		msgsSum += r.Stats.DataMsgs
		roundsSum += r.Stats.Rounds
		if mb, sb := busyOf(r); mb > 0 {
			busyMax = append(busyMax, ms(mb))
			residual = append(residual, ms(r.Stats.Wall-mb))
			wallSum += r.Stats.Wall
			busyMaxSum += mb
			if r.Trace != nil {
				busySum = append(busySum, ms(sb))
			}
		}
		if r.Trace != nil {
			_, in, _, _, _, _ := r.Trace.Totals()
			tracedMsgs += in
		}
	}
	if s.Algo == 0 { // dGPM
		put("dgpm.site_busy_ms_max", mean(busyMax), len(busyMax))
		put("dgpm.site_busy_ms_sum", mean(busySum), len(busySum))
		if wallSum > 0 {
			put("dgpm.busy_share", float64(busyMaxSum)/float64(wallSum), len(busyMax))
		}
		put("dgpm.rounds_per_query", mean(rounds), len(rounds))
	} else {
		put("baseline.dmes_site_busy_ms_sum", mean(busySum), len(busySum))
		put("baseline.dmes_supersteps", mean(rounds), len(rounds))
	}
	put("cluster.msgs_per_query", mean(msgs), len(msgs))
	if roundsSum > 0 {
		put("cluster.msgs_per_round", float64(msgsSum)/float64(roundsSum), len(msgs))
	}
	put("cluster.residual_ms", mean(residual), len(residual))
	put("tcpnet.wire_bytes_per_query", mean(wireBytes), len(wireBytes))
	if frames > 0 && queries > 0 {
		put("tcpnet.frames_per_query", float64(frames)/float64(queries), queries)
		put("tcpnet.msgs_per_frame", float64(tracedMsgs)/float64(frames), queries)
	}
	put("dgs.residual_ms", median(unexplained), len(unexplained))

	var maintain, reeval, delta, reevaluated []float64
	for _, r := range rs {
		switch r.Kind {
		case opDelete:
			maintain = append(maintain, ms(r.Apply.Maintenance.Wall))
		case opInsert:
			reeval = append(reeval, ms(r.Apply.Maintenance.Wall))
		default:
			continue
		}
		delta = append(delta, ms(r.Apply.Delta.Wall))
		reevaluated = append(reevaluated, float64(r.Reevaluated))
	}
	if len(delta) > 0 {
		put("dgpm.maintain_ms_per_batch", mean(maintain), len(maintain))
		put("dgpm.reeval_ms_per_batch", mean(reeval), len(reeval))
		put("dgs.apply_delta_ms", mean(delta), len(delta))
		put("dgs.reevaluated_per_batch", mean(reevaluated), len(reevaluated))
	}
}

// writeSpans writes a run's spans, one JSON object per line.
func writeSpans(dir string, rec *runRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+rec.Workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range rec.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
