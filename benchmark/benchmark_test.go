package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func testHost(t *testing.T) *host {
	t.Helper()
	h, err := newHost()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := h.close(); err != nil {
			t.Error(err)
		}
	})
	return h
}

// The in-process workloads at smoke scale must emit every metric the
// table declares for them, under exactly that name and unit, and must
// have run the oracle.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	h := testHost(t)
	for _, name := range []string{wlLocal, wlMaintain} {
		t.Run(name, func(t *testing.T) {
			s, _ := findWorkload(name)
			var log bytes.Buffer
			rec, err := runWorkload(context.Background(), h, s.smoke(), 1, 1, true, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if rec.Checked == 0 || rec.OracleKeys == 0 {
				t.Fatalf("oracle did not run: checked=%d keys=%d", rec.Checked, rec.OracleKeys)
			}
			if rec.Wrong != 0 || rec.Failed != 0 || rec.Invalid != "" {
				t.Fatalf("wrong=%d failed=%d invalid=%q\n%s", rec.Wrong, rec.Failed, rec.Invalid, log.String())
			}
			if len(rec.spans) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			check := func(defs []metricDef, got metricSet) {
				for _, d := range defs {
					v, ok := got[d.Name]
					if !d.on(name) {
						if ok {
							t.Errorf("%s emitted on %s, where it is not declared", d.Name, name)
						}
						continue
					}
					if !nameRe.MatchString(d.Name) {
						t.Errorf("metric name %q", d.Name)
					}
					if !ok {
						// A p95 needs 200 samples; a one-second phase may not
						// have them, and must then leave the metric out.
						if strings.HasSuffix(d.Name, "_p95_ms") {
							continue
						}
						t.Errorf("%s: declared for %s but not emitted", d.Name, name)
						continue
					}
					if v.Unit != d.Unit {
						t.Errorf("%s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", d.Name, v.Value)
					}
				}
			}
			check(endToEnd, rec.EndToEnd)
			check(perLayer, rec.PerLayer)
			for n, v := range rec.EndToEnd {
				if strings.HasSuffix(n, "_p95_ms") && v.N < minP95Samples {
					t.Errorf("%s reported from %d samples", n, v.N)
				}
			}

			// The driver's line has every listed metric, reported or not.
			all, some := universal()
			line := driverResult(rec)
			if want := len(some) + len(perLayer); len(line.Metrics) != want {
				t.Errorf("traced driver line has %d metrics, want %d", len(line.Metrics), want)
			}
			rec.Traced = false
			if line = driverResult(rec); len(line.Metrics) != len(all) {
				t.Errorf("untraced driver line has %d metrics, want %d", len(line.Metrics), len(all))
			}
			for n, v := range line.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s is 0 on %s", n, name)
				}
			}
		})
	}
}

// A wrong answer must be counted, whichever way it is wrong.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	h := testHost(t)
	s, _ := findWorkload(wlMaintain)
	in, err := generate(s.smoke(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sys, err := setUp(ctx, h, in)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	ph, err := runPhase(ctx, sys, in.ops[:40], 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := checkResults(sys, ph.results)
	if err != nil || v.Wrong != 0 || v.Checked == 0 {
		t.Fatalf("clean phase: %+v, %v", v, err)
	}
	tampered := 0
	for i := range ph.results {
		if r := &ph.results[i]; r.Kind == opQuery {
			switch tampered {
			case 0:
				r.Answer.Pairs++
			case 1:
				r.Answer.Hash ^= 1 // same size, different pairs
			}
			tampered++
		}
	}
	if tampered < 2 {
		t.Fatalf("only %d queries in the phase", tampered)
	}
	v, err = checkResults(sys, ph.results)
	if err != nil || v.Wrong != 2 {
		t.Fatalf("tampered phase: wrong=%d, want 2 (%v)", v.Wrong, err)
	}
}

func TestP95NeedsTwoHundredSamples(t *testing.T) {
	xs := make([]float64, minP95Samples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := p95(xs); ok {
		t.Fatalf("p95 reported from %d samples", len(xs))
	}
	xs = append(xs, float64(len(xs)))
	v, ok := p95(xs)
	if !ok || math.Abs(v-189.05) > 1e-9 {
		t.Fatalf("p95 of 0..199 = %v, %v; want 189.05", v, ok)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

// spread must agree with Python's statistics.quantiles(xs, n=4), the
// rule the driver applies.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}
	got, ok := spread(xs)
	if want := (31.0 - 3.5) / 13.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := spread([]float64{5}); ok {
		t.Fatal("spread of one value")
	}
}

// The open loop's clock depends on the op's index alone, never on when
// earlier ops finished.
func TestDueTimeIsAFixedSchedule(t *testing.T) {
	if d := dueTime(0, 20); d != 0 {
		t.Fatalf("op 0 due at %v", d)
	}
	if d := dueTime(20, 20); d != time.Second {
		t.Fatalf("op 20 at 20/s due at %v", d)
	}
	for i := 1; i < 1000; i++ {
		if step := dueTime(i, 20) - dueTime(i-1, 20); step < 49*time.Millisecond || step > 51*time.Millisecond {
			t.Fatalf("interval %d = %v", i, step)
		}
	}
}

// fileOf builds a run record with the given query_p50_ms values for
// local-8, everything else healthy.
func fileOf(p50 []float64, wrong int) *runFile {
	f := &runFile{}
	for _, v := range p50 {
		e := make(metricSet)
		e.put(endToEnd, "query_p50_ms", v, 300)
		e.put(endToEnd, "query_qps", 1000/v, 300)
		e.put(endToEnd, "failed_ops_share", 0, 300)
		e.put(endToEnd, "wrong_results", float64(wrong), 300)
		f.Runs = append(f.Runs, &runRecord{Workload: wlLocal, Wrong: wrong, EndToEnd: e})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	verdicts := func(old, new *runFile) map[string]string {
		out := make(map[string]string)
		for _, r := range compareRuns(old, new) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	base := fileOf([]float64{50, 50.5, 49.5, 50.2, 49.8}, 0)

	if v := verdicts(base, fileOf([]float64{50.4, 50.1, 49.9, 50.6, 50.2}, 0)); v["query_p50_ms"] != verdictOK || v["query_qps"] != verdictOK {
		t.Errorf("same commit: %v", v)
	}
	// 40% slower: latency up by more than its 25% bound, and throughput
	// down 29% with it.
	if v := verdicts(base, fileOf([]float64{70, 70.7, 69.3, 70.3, 69.7}, 0)); v["query_p50_ms"] != verdictRegressed || v["query_qps"] != verdictRegressed {
		t.Errorf("40%% slowdown: %v", v)
	}
	// 20% slower stays inside the bound this machine's noise forces.
	if v := verdicts(base, fileOf([]float64{60, 60.6, 59.4, 60.2, 59.8}, 0)); v["query_p50_ms"] != verdictOK {
		t.Errorf("20%% slowdown: %v", v)
	}
	// 20% faster is not a regression.
	if v := verdicts(base, fileOf([]float64{40, 40.4, 39.6, 40.2, 39.8}, 0)); v["query_p50_ms"] != verdictOK {
		t.Errorf("20%% speed-up: %v", v)
	}
	// Runs that disagree with each other by more than the bound settle
	// nothing, whatever their medians.
	if v := verdicts(base, fileOf([]float64{40, 70, 50, 62, 45}, 0)); v["query_p50_ms"] != verdictUnresolved {
		t.Errorf("noisy runs: %v", v)
	}
	if v := verdicts(base, fileOf([]float64{50, 50.5, 49.5, 50.2, 49.8}, 1)); v["wrong_results"] != verdictRegressed {
		t.Errorf("wrong answer: %v", v)
	}

	// End to end through files: exit status 0 for the same commit, 1 for
	// the slowdown and for the wrong answer.
	dir := t.TempDir()
	write := func(name string, f *runFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", base)
	for _, tc := range []struct {
		name string
		file *runFile
		want int
	}{
		{"same.json", fileOf([]float64{50.4, 50.1, 49.9, 50.6, 50.2}, 0), 0},
		{"slow.json", fileOf([]float64{70, 70.7, 69.3, 70.3, 69.7}, 0), 1},
		{"wrong.json", fileOf([]float64{50, 50.5, 49.5, 50.2, 49.8}, 1), 1},
	} {
		var out, errOut bytes.Buffer
		if got := compareFiles(oldPath, write(tc.name, tc.file), &out, &errOut); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, got, tc.want, out.String(), errOut.String())
		}
	}
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, table has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %q / table %q", i, f.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters; the driver takes one line of at most 200", w.Name, len(w.Why))
		}
	}
	all, some := universal()
	if len(f.EndToEnd) != len(all) {
		t.Fatalf("%d end_to_end metrics, table has %d for all workloads", len(f.EndToEnd), len(all))
	}
	for i, d := range all {
		if g := f.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table %s %s %s %v", i, g, d.Name, d.Unit, d.Better, d.Bound)
		}
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %v over the driver's 0.25", d.Name, d.Bound)
		}
	}
	layer := append(append([]metricDef(nil), some...), perLayer...)
	if len(f.PerLayer) != len(layer) {
		t.Fatalf("%d per_layer metrics, table has %d", len(f.PerLayer), len(layer))
	}
	for i, d := range layer {
		if g := f.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table %s %s %s", i, g, d.Name, d.Unit, d.Better)
		}
	}
}

// README.md is where a later issue looks a name up: it must define every
// workload and metric.
func TestReadmeNamesEverything(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, w := range workloads {
		if !strings.Contains(doc, "`"+w.Name+"`") {
			t.Errorf("README.md does not name workload %s", w.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(doc, "`"+d.Name+"`") {
			t.Errorf("README.md does not name metric %s", d.Name)
		}
	}
}
