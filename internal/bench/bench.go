// Package bench regenerates the paper's evaluation (§6, Fig. 6(a)–6(p)).
//
// Each experiment group reproduces one figure pair (PT + DS) with the
// paper's sweep: Exp-1 (dGPM on the web graph) varies |F|, |Q| and |Vf|;
// Exp-2 (dGPMd on the citation DAG) varies d, |F| and |Vf|; Exp-3
// (synthetic) varies |F| and |G|. Sizes default to a scaled-down version
// of the paper's datasets; Config.Scale restores larger sizes.
//
// Absolute numbers differ from the paper (simulated cluster vs. EC2);
// the reproduced claims are the *shapes*: who wins, by what order of
// magnitude, and which curves are flat vs. growing.
//
// Mirroring the paper's methodology — and the Deployment API it
// motivates — each sweep point fragments its graph once into a
// deployment (with the EC2-like link model) and evaluates all of the
// point's queries and algorithms against the resident fragments.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dgs"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies every dataset size (1.0 = default scaled sizes:
	// web 60K/300K, citation 28K/60K, synthetic 120K/480K).
	Scale float64
	// Queries is the number of random queries averaged per point (the
	// paper averages 20); default 2.
	Queries int
	// Seed makes runs reproducible.
	Seed int64
	// NoNetwork disables the EC2-like link cost model (used by fast unit
	// tests; the figures are meant to run with it on).
	NoNetwork bool
	// Partitioners restricts the "partition" group to the named
	// strategies (benchfig -part); empty means the group's default set.
	Partitioners []string
}

func (c Config) norm() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 16 {
		v = 16
	}
	return v
}

// PartMeta attributes a measured point to the fragmentation it ran on:
// the partitioner strategy, the boundary sizes that parameterize every
// cost bound of the paper, the fragment count and balance, and the
// build time. Recorded into every BENCH_*.json point so past numbers
// stay comparable when partitioners evolve.
type PartMeta struct {
	Strategy string  `json:"strategy"`
	Frags    int     `json:"frags"`
	Nodes    int     `json:"nodes"` // |V| of the fragmented graph
	Vf       int     `json:"vf"`
	Ef       int     `json:"ef"`
	MaxNodes int     `json:"max_nodes"` // largest fragment's |Vi| (balance)
	BuildMs  float64 `json:"build_ms"`
}

// partMeta snapshots a partition's attribution metadata.
func partMeta(part *dgs.Partition) *PartMeta {
	sizes := part.FragmentSizes()
	maxNodes := 0
	if len(sizes) > 0 {
		maxNodes = sizes[0]
	}
	nodes := 0
	for _, s := range sizes {
		nodes += s
	}
	return &PartMeta{
		Strategy: part.Strategy(),
		Frags:    part.NumFragments(),
		Nodes:    nodes,
		Vf:       part.Vf(),
		Ef:       part.Ef(),
		MaxNodes: maxNodes,
		BuildMs:  float64(part.BuildTime().Microseconds()) / 1000,
	}
}

// Point is one x-position of one series.
type Point struct {
	X      string
	PTms   float64
	DSkb   float64
	Msgs   int64
	Rounds int64
	// QPS, P99ms and HitRate are the serving group's axes: sustained
	// throughput, tail latency, and result-cache hit rate of one arm.
	QPS     float64 `json:"QPS,omitempty"`
	P99ms   float64 `json:"P99ms,omitempty"`
	HitRate float64 `json:"HitRate,omitempty"`
	// DetectMs, RestoreMs and QueriesLost are the failover group's axes:
	// client-observed loss-detection latency, time until service is
	// restored (manual redeploy or automatic spare takeover), and
	// retryable query failures per kill.
	DetectMs    float64 `json:"DetectMs,omitempty"`
	RestoreMs   float64 `json:"RestoreMs,omitempty"`
	QueriesLost int64   `json:"QueriesLost,omitempty"`
	// Part attributes the point to the fragmentation it was measured
	// on; nil only for points with no deployment behind them.
	Part *PartMeta `json:"Part,omitempty"`
}

// Series is one algorithm's curve.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one panel of Fig. 6.
type Figure struct {
	ID     string // e.g. "6a"
	Title  string
	XLabel string
	YLabel string // "PT (ms)" or "DS (KB)"
	Series []Series
}

// Table renders the figure as an aligned text table (the same rows the
// paper plots).
func (f *Figure) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s — %s [%s vs %s]\n", f.ID, f.Title, f.YLabel, f.XLabel)
	if len(f.Series) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%14s", s.Name)
	}
	sb.WriteByte('\n')
	for i := range f.Series[0].Points {
		fmt.Fprintf(&sb, "%-12s", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			p := s.Points[i]
			switch f.YLabel {
			case "DS (KB)":
				fmt.Fprintf(&sb, "%14.2f", p.DSkb)
			case "QPS":
				fmt.Fprintf(&sb, "%14.1f", p.QPS)
			case "p99 (ms)":
				fmt.Fprintf(&sb, "%14.1f", p.P99ms)
			case "detect (ms)":
				fmt.Fprintf(&sb, "%14.2f", p.DetectMs)
			case "restore (ms)":
				fmt.Fprintf(&sb, "%14.2f", p.RestoreMs)
			default:
				fmt.Fprintf(&sb, "%14.1f", p.PTms)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// groupRunner executes one experiment group and emits its PT+DS figures.
type groupRunner func(cfg Config) ([]*Figure, error)

var groups = map[string]struct {
	figs []string
	run  groupRunner
}{
	"exp1-F":    {[]string{"6a", "6b"}, exp1VaryF},
	"exp1-Q":    {[]string{"6c", "6d"}, exp1VaryQ},
	"exp1-Vf":   {[]string{"6e", "6f"}, exp1VaryVf},
	"exp2-d":    {[]string{"6g", "6h"}, exp2VaryD},
	"exp2-F":    {[]string{"6i", "6j"}, exp2VaryF},
	"exp2-Vf":   {[]string{"6k", "6l"}, exp2VaryVf},
	"exp3-F":    {[]string{"6m", "6n"}, exp3VaryF},
	"exp3-G":    {[]string{"6o", "6p"}, exp3VaryG},
	"updates":   {[]string{"upd-pt", "upd-ds"}, updatesExp},
	"partition": {[]string{"part-pt", "part-ds"}, partitionExp},
	"serving":   {[]string{"srv-qps", "srv-p99"}, servingExp},
	"failover":  {[]string{"fo-detect", "fo-restore"}, failoverExp},
}

// Figures lists every reproducible figure ID in order: the paper's 16
// panels plus the updates and partition experiments' PT/DS pairs, the
// serving experiment's QPS/p99 pair and the failover experiment's
// detection/restoration pair.
func Figures() []string {
	return []string{"6a", "6b", "6c", "6d", "6e", "6f", "6g", "6h", "6i", "6j", "6k", "6l", "6m", "6n", "6o", "6p", "upd-pt", "upd-ds", "part-pt", "part-ds", "srv-qps", "srv-p99", "fo-detect", "fo-restore"}
}

// Groups lists the experiment groups.
func Groups() []string {
	out := make([]string, 0, len(groups))
	for g := range groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// RunFigure regenerates the group containing the figure and returns all
// of the group's figures (a PT panel and its DS sibling share the runs).
func RunFigure(id string, cfg Config) ([]*Figure, error) {
	for _, g := range groups {
		for _, f := range g.figs {
			if f == id {
				return g.run(cfg.norm())
			}
		}
	}
	return nil, fmt.Errorf("bench: unknown figure %q (have %v)", id, Figures())
}

// RunGroup regenerates one experiment group by name.
func RunGroup(name string, cfg Config) ([]*Figure, error) {
	g, ok := groups[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown group %q (have %v)", name, Groups())
	}
	return g.run(cfg.norm())
}

// network is the per-deployment link model of a run: EC2-like unless the
// config opts out (PT must charge for shipped bytes; §6 runs on a real
// cluster).
func (c Config) network() dgs.Network {
	if c.NoNetwork {
		return dgs.Network{}
	}
	return dgs.EC2Network()
}

// measurement accumulates averaged stats for one (algorithm, point).
type measurement struct {
	pt, ds float64
	msgs   int64
	rounds int64
	n      int
	part   *PartMeta
}

func (m *measurement) add(st dgs.Stats) {
	m.pt += float64(st.Wall.Microseconds()) / 1000
	m.ds += float64(st.DataBytes) / 1024
	m.msgs += st.DataMsgs
	m.rounds += st.Rounds
	m.n++
}

func (m *measurement) point(x string) Point {
	if m.n == 0 {
		return Point{X: x, Part: m.part}
	}
	n := float64(m.n)
	return Point{X: x, PTms: m.pt / n, DSkb: m.ds / n, Msgs: m.msgs / int64(m.n), Rounds: m.rounds / int64(m.n), Part: m.part}
}

// runPoint deploys the partition once and evaluates the given algorithms
// on (queries × resident fragments), returning one measurement per
// algorithm — the paper's fragment-once, query-many methodology.
func runPoint(cfg Config, algos []dgs.Algorithm, queries []*dgs.Pattern, part *dgs.Partition, qopts ...dgs.QueryOption) (map[dgs.Algorithm]*measurement, error) {
	dep, err := dgs.Deploy(part, dgs.WithNetwork(cfg.network()), dgs.WithQueryDefaults(qopts...))
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	out := make(map[dgs.Algorithm]*measurement, len(algos))
	meta := partMeta(part)
	for _, a := range algos {
		out[a] = &measurement{part: meta}
	}
	for _, q := range queries {
		for _, a := range algos {
			res, err := dep.Query(context.Background(), q, dgs.WithAlgorithm(a))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			out[a].add(res.Stats)
		}
	}
	return out, nil
}

func buildFigures(ptID, dsID, title, xlabel string, ptAlgos, dsAlgos []dgs.Algorithm, xs []string, ms []map[dgs.Algorithm]*measurement) []*Figure {
	pt := &Figure{ID: ptID, Title: title, XLabel: xlabel, YLabel: "PT (ms)"}
	ds := &Figure{ID: dsID, Title: title, XLabel: xlabel, YLabel: "DS (KB)"}
	for _, a := range ptAlgos {
		s := Series{Name: a.String()}
		for i, m := range ms {
			s.Points = append(s.Points, m[a].point(xs[i]))
		}
		pt.Series = append(pt.Series, s)
	}
	for _, a := range dsAlgos {
		s := Series{Name: a.String()}
		for i, m := range ms {
			s.Points = append(s.Points, m[a].point(xs[i]))
		}
		ds.Series = append(ds.Series, s)
	}
	return []*Figure{pt, ds}
}
