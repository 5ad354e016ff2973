// Command benchmark is the repository's layered benchmark: five named
// workloads over the library and over real dgsd / dgsgw processes, the
// end-to-end metrics a user of the system sees, and — in a traced pass —
// the per-layer metrics that say where the time went. Every layer is
// measured from outside: by timing calls into its public functions and
// by reading what the program already reports (Stats, ApplyStats,
// Result.Trace, Deployment.WireFrames, the gateway's /stats and response
// fields, /proc of the processes it spawned). Every answer is checked
// against the centralized simulation. README.md in this directory
// defines each workload and metric; later issues claim gains by those
// names.
//
// Usage, from the repository root:
//
//	go run -C benchmark . -seed 1 -out run.json        # all five workloads
//	go run -C benchmark . -seed 1 -trace 1             # plus per-layer metrics and span files
//	go run -C benchmark . -workload local-8 -seconds 15
//	go run -C benchmark . -compare old.json new.json
//
// The driver's contract (BENCHMARK.json) is the -workload form through
// run.sh: it prints one JSON object as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the length of a timed phase; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 15

// runFile is the output of one invocation: the run record -compare reads.
type runFile struct {
	Env  envInfo      `json:"env"`
	Runs []*runRecord `json:"runs"`
}

// envInfo says what produced the numbers.
type envInfo struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
	Started    string `json:"started"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload and print the driver's result line: "+strings.Join(workloadNames(), "|"))
		seed     = fs.Int64("seed", 1, "draws the op order and the updated edges")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of each timed phase")
		trace    = fs.Int("trace", 0, "1 adds the traced pass: per-layer metrics and out/trace-<workload>.jsonl")
		runs     = fs.Int("runs", 1, "measure each workload this many times (for -compare's spread)")
		out      = fs.String("out", "", "write the run record (JSON) to this file")
		smoke    = fs.Bool("smoke", false, "shrink the graphs 20× — a quick check of the harness, not a measurement")
		compare  = fs.Bool("compare", false, "compare two run records: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	specs := workloads
	if *workload != "" {
		s, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q; have %s\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		specs = []spec{s}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHost()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	file := runFile{Env: envOf(h.root, *seed, *smoke)}
	code := 0
	for _, s := range specs {
		if *smoke {
			s = s.smoke()
		}
		for i := 0; i < *runs; i++ {
			rec, err := runWorkload(ctx, h, s, *seed, *seconds, *trace == 1, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", s.Name, err)
				code = 1
				break
			}
			file.Runs = append(file.Runs, rec)
			printRun(stdout, rec)
			if len(rec.spans) > 0 {
				path, err := writeSpans(filepath.Join(h.root, "benchmark", "out"), rec)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark: write spans:", err)
					code = 1
				} else {
					fmt.Fprintf(stdout, "%s: %d spans → %s\n", s.Name, len(rec.spans), path)
				}
			}
			if rec.Wrong > 0 || rec.Invalid != "" {
				code = 1
			}
		}
		if code != 0 {
			break
		}
	}
	if err := h.close(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		code = 1
	}
	if *out != "" && len(file.Runs) > 0 {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = 1
		}
	}
	if *workload != "" && len(file.Runs) > 0 && ctx.Err() == nil {
		// The driver reads the last line of standard output.
		line, err := json.Marshal(driverResult(file.Runs[len(file.Runs)-1]))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func envOf(root string, seed int64, smoke bool) envInfo {
	head := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		head = strings.TrimSpace(string(b))
	}
	return envInfo{
		Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitHead: head,
		Started: time.Now().UTC().Format(time.RFC3339), Smoke: smoke,
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRun prints every metric of a run by name, with its unit and the
// sample count behind it.
func printRun(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "%s: %d ops (%v), %d failed; %d answers checked against %d simulations, %d wrong; %.1fs wall\n",
		rec.Workload, rec.Attempted, rec.Ops, rec.Failed, rec.Checked, rec.OracleKeys, rec.Wrong, rec.WallS)
	if rec.Invalid != "" {
		fmt.Fprintf(w, "%s: INVALID: %s\n", rec.Workload, rec.Invalid)
	}
	printSet := func(defs []metricDef, m metricSet) {
		for _, d := range defs {
			v, ok := m[d.Name]
			if !ok {
				continue
			}
			n := ""
			if v.N > 0 {
				n = fmt.Sprintf("  (n=%d)", v.N)
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", d.Name, v.Value, v.Unit, n)
		}
	}
	printSet(endToEnd, rec.EndToEnd)
	printSet(perLayer, rec.PerLayer)
}

// driverLine is the last line of standard output in -workload mode.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// driverResult shapes a run for the driver: with tracing off every
// end-to-end metric all workloads share, with tracing on every per-layer
// metric plus the end-to-end metrics only some workloads report. A metric
// the workload does not report reads 0.
func driverResult(rec *runRecord) driverLine {
	line := driverLine{
		Correct:   rec.Wrong == 0 && rec.Invalid == "",
		Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]value),
	}
	all, some := universal()
	if !rec.Traced {
		for _, d := range all {
			line.Metrics[d.Name] = value{Value: rec.EndToEnd[d.Name].Value, Unit: d.Unit}
		}
		return line
	}
	for _, d := range some {
		line.Metrics[d.Name] = value{Value: rec.EndToEnd[d.Name].Value, Unit: d.Unit}
	}
	for _, d := range perLayer {
		line.Metrics[d.Name] = value{Value: rec.PerLayer[d.Name].Value, Unit: d.Unit}
	}
	return line
}
