package main

// -compare: the tool later issues and reviewers read a change by. One row
// per (workload, end-to-end metric) with both medians, the relative
// change with its base, the bound, and a verdict.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // worse than the old median by more than the bound
	verdictUnresolved = "unresolved" // the run-to-run spread is wider than the bound, so the change cannot be told from noise
)

// row is one line of the comparison.
type row struct {
	Workload, Metric, Unit string
	Old, New               float64
	NOld, NNew             int     // runs behind each median
	Delta                  float64 // (new − old) ÷ old
	Worse                  float64 // Delta signed so that positive is worse
	Spread                 float64 // the wider of the two sides' quartile distance ÷ median
	Bound                  float64
	Verdict                string
}

func loadRuns(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// valuesOf gathers a metric's value from every run of a workload.
func valuesOf(f *runFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareRuns builds the comparison table. A bound of 0 (failed ops,
// wrong results) means any increase regresses.
func compareRuns(old, new *runFile) []row {
	var rows []row
	for _, w := range workloads {
		for _, d := range endToEnd {
			o, n := valuesOf(old, w.Name, d.Name), valuesOf(new, w.Name, d.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			r := row{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
				Old: median(o), New: median(n), NOld: len(o), NNew: len(n), Verdict: verdictOK}
			if r.Old != 0 {
				r.Delta = (r.New - r.Old) / r.Old
			} else if r.New != 0 {
				r.Delta = 1 // from nothing to something: all of it is change
			}
			r.Worse = r.Delta
			if d.Better == "higher" {
				r.Worse = -r.Delta
			}
			so, _ := spread(o)
			sn, _ := spread(n)
			r.Spread = max(so, sn)
			switch {
			case d.Bound == 0 && r.New > r.Old:
				r.Verdict = verdictRegressed
			case d.Bound == 0:
			case r.Spread > d.Bound:
				r.Verdict = verdictUnresolved
			case r.Worse > d.Bound:
				r.Verdict = verdictRegressed
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// compareFiles prints the table and exits non-zero on any regressed row —
// which includes any wrong result and any rise in failed ops.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := loadRuns(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	new, err := loadRuns(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "old: %s (%s, seed %d)\nnew: %s (%s, seed %d)\n",
		oldPath, old.Env.GitHead, old.Env.Seed, newPath, new.Env.GitHead, new.Env.Seed)
	fmt.Fprintf(stdout, "%-16s %-28s %14s %14s %-6s %22s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "unit", "change (of old)", "spread", "bound", "verdict")
	bad := 0
	for _, r := range compareRuns(old, new) {
		bound := "any"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.Bound*100)
		}
		fmt.Fprintf(stdout, "%-16s %-28s %14.4f %14.4f %-6s %+8.1f%% of %-9.4g %7.1f%% %7s  %s (n=%d,%d)\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, r.Delta*100, r.Old, r.Spread*100, bound, r.Verdict, r.NOld, r.NNew)
		if r.Verdict == verdictRegressed {
			bad++
		}
	}
	for _, r := range new.Runs {
		if r.Wrong > 0 {
			fmt.Fprintf(stdout, "%s: %d wrong results in %s\n", r.Workload, r.Wrong, newPath)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", bad)
		return 1
	}
	return 0
}
