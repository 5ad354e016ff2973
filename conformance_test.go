package dgs

// Cross-algorithm conformance matrix: every distributed algorithm must
// produce exactly the centralized Simulate relation on every workload ×
// partition-strategy combination its preconditions admit. The paper
// proves all seven compute the same unique maximum simulation; this
// matrix is the executable form of that claim, and the safety net under
// partition-strategy and runtime changes.

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dgs/internal/dgpm"
)

type confWorkload struct {
	name string
	dict *Dict
	g    *Graph
	// queries paired with whether each is a DAG pattern (dGPMd's easy
	// precondition) and the graph's own shape.
	queries []confQuery
	gIsDAG  bool
	gIsTree bool
}

type confQuery struct {
	name string
	q    *Pattern
}

func confWorkloads(t *testing.T) []confWorkload {
	t.Helper()
	var out []confWorkload
	{
		dict := NewDict()
		g := GenSynthetic(dict, 500, 1500, 21)
		dq, err := GenDAGPattern(dict, 5, 7, 3, 22)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, confWorkload{
			name: "cyclic", dict: dict, g: g,
			queries: []confQuery{
				{"cyclicQ", GenCyclicPatternOver(dict, 4, 6, 4, 23)},
				{"dagQ", dq},
			},
		})
	}
	{
		dict := NewDict()
		g := GenCitation(dict, 500, 1100, 24)
		if !g.IsDAG() {
			t.Fatal("citation generator must produce a DAG")
		}
		dq, err := GenDAGPattern(dict, 5, 7, 3, 25)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, confWorkload{
			name: "dag", dict: dict, g: g, gIsDAG: true,
			queries: []confQuery{
				{"dagQ", dq},
				{"cyclicQ", GenCyclicPatternOver(dict, 4, 6, 4, 26)},
			},
		})
	}
	{
		dict := NewDict()
		g := GenTree(dict, 500, 27)
		if !g.IsTree() {
			t.Fatal("tree generator must produce a tree")
		}
		out = append(out, confWorkload{
			name: "tree", dict: dict, g: g, gIsDAG: true, gIsTree: true,
			queries: []confQuery{
				{"treeQ", GenTreePattern(dict, 4, 28)},
				{"cyclicQ", GenCyclicPatternOver(dict, 3, 5, 15, 29)},
			},
		})
	}
	return out
}

func confPartitions(t *testing.T, wl confWorkload) map[string]*Partition {
	t.Helper()
	g := wl.g
	out := make(map[string]*Partition)
	var err error
	if out["Random"], err = PartitionWith(g, "random", 6, WithPartitionSeed(31)); err != nil {
		t.Fatal(err)
	}
	if out["Blocks"], err = PartitionWith(g, "blocks", 6); err != nil {
		t.Fatal(err)
	}
	if out["TargetRatio"], err = PartitionWith(g, "targetratio", 6, WithPartitionTarget(0.3), WithPartitionSeed(31)); err != nil {
		t.Fatal(err)
	}
	// The quality-first streaming partitioners: every algorithm must
	// stay correct on low-cut fragmentations, not just the experiment
	// fixtures that raise the ratio.
	if out["LDG"], err = PartitionWith(g, "ldg", 6, WithPartitionSeed(31)); err != nil {
		t.Fatal(err)
	}
	if out["Fennel"], err = PartitionWith(g, "fennel", 6, WithPartitionSeed(31), WithRefinePasses(4)); err != nil {
		t.Fatal(err)
	}
	if wl.gIsTree {
		// dGPMt's Corollary-4 precondition: fragments must be connected
		// subtrees; only this strategy guarantees it.
		if out["ConnectedTree"], err = PartitionWith(g, "tree", 6); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

//dgsvet:exhaustive — the conformance matrix must cover every algorithm
var confAlgos = []Algorithm{
	AlgoDGPM, AlgoDGPMNoOpt, AlgoDGPMd, AlgoDGPMt, AlgoMatch, AlgoDisHHK, AlgoDMes,
}

// confArm is one column of the matrix: an algorithm under a set of query
// options. Every algorithm runs under its defaults (the arm is then named
// after the algorithm alone); dGPM additionally runs with the §4.2 push
// operation off and with θ = 0 (every site with something to push does).
type confArm struct {
	name string
	algo Algorithm
	opts []QueryOption
}

func confArms() []confArm {
	var arms []confArm
	for _, algo := range confAlgos {
		arms = append(arms, confArm{name: algo.String(), algo: algo})
	}
	return append(arms,
		confArm{"dGPM-nopush", AlgoDGPM, []QueryOption{WithPushDisabled()}},
		confArm{"dGPM-theta0", AlgoDGPM, []QueryOption{WithPushTheta(0)}},
	)
}

// confPush is what an arm pushed on one cell of the matrix. The push
// decision is taken on a site's initial partial evaluation, before any
// message is processed, so it is the same on every run and transport.
type confPush struct{ msgs, bytes int64 }

// confTraffic is a cell's data shipment, which no transport may change.
// A dGPM site ships once per drained run, so its message and round
// counts depend on the schedule; what does not is the falsified pairs
// it ships, 6 B each beyond a 5 B message header — so for the dGPM arms
// the signature is DataBytes − 5·DataMsgs alone.
type confTraffic struct{ dataBytes, dataMsgs, rounds int64 }

func confTrafficOf(algo Algorithm, st Stats) confTraffic {
	if algo == AlgoDGPM || algo == AlgoDGPMNoOpt {
		return confTraffic{dataBytes: st.DataBytes - 5*st.DataMsgs}
	}
	return confTraffic{st.DataBytes, st.DataMsgs, st.Rounds}
}

// confGolden is the matrix's record of every cell's answer and counts,
// one line per cell name, sorted: what no transport and no commit may
// change unless the change means to. `go test -run TestConformanceMatrix
// -update` rewrites it from the cells the run visits, so it must run the
// whole matrix.
const confGolden = "testdata/conformance.golden"

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files of the golden tests this run visits")

// confLine is a cell's golden line: its name, a hash of the answer, what
// it pushed, its schedule-free shipment (confTrafficOf) and the bytes of
// the sites' reports.
func confLine(name string, m *Match, push confPush, tr confTraffic, resultBytes int64) string {
	h := fnv.New64a()
	var buf []byte
	for _, set := range m.m.Sets {
		buf = binary.AppendUvarint(buf[:0], uint64(len(set)))
		for _, v := range set {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%s answer=%016x push=%d/%d data=%d/%d/%d result=%d",
		name, h.Sum64(), push.msgs, push.bytes, tr.dataBytes, tr.dataMsgs, tr.rounds, resultBytes)
}

// readConfGolden returns the golden lines by cell name.
func readConfGolden(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if *update {
		return out
	}
	b, err := os.ReadFile(confGolden)
	if err != nil {
		t.Fatalf("%v (go test -run TestConformanceMatrix -update writes it)", err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		out[name] = line
	}
	return out
}

// writeConfGolden writes the lines of the cells a run visited, sorted.
func writeConfGolden(t *testing.T, lines map[string]string) {
	t.Helper()
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		out = append(out, line)
	}
	slices.Sort(out)
	if err := os.WriteFile(confGolden, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// confClaims checks one cell's statistics against the paper's bounds on
// what an algorithm ships, in counts no schedule can move:
//
//   - Theorem 2 (dGPM, dGPMNOpt): each falsified pair X(u,v), 6 B on the
//     wire, crosses at most once per crossing edge into v and query node
//     u — so the pairs' bytes, push messages excluded, are at most
//     6·|Vq|·|Ef|;
//   - Corollary 4 (dGPMt on connected-subtree fragments): two rounds, and
//     exactly two data messages per fragment;
//   - Theorem 3 (dGPMd on a DAG pattern): each site emits at most one
//     wave per rank, so at most |F|·d rounds in all. A cyclic pattern on
//     a DAG graph is answered ∅ without a wave, and is exempt.
func confClaims(algo Algorithm, pname string, q *Pattern, part *Partition, st Stats) error {
	nf, ef, vq := int64(part.NumFragments()), int64(part.Ef()), int64(q.NumNodes())
	switch algo {
	case AlgoDGPM, AlgoDGPMNoOpt:
		if pairs := (st.DataBytes - st.PushBytes) - 5*(st.DataMsgs-st.PushMsgs); pairs > 6*vq*ef {
			return fmt.Errorf("Theorem 2: %d B of falsified pairs > 6·|Vq|·|Ef| = 6·%d·%d", pairs, vq, ef)
		}
	case AlgoDGPMt:
		if pname == "ConnectedTree" && (st.DataMsgs != 2*nf || st.Rounds != 2) {
			return fmt.Errorf("Corollary 4: %d data messages in %d rounds, want 2·|F| = %d in 2", st.DataMsgs, st.Rounds, 2*nf)
		}
	case AlgoDGPMd:
		if d := int64(q.p.MaxRank()); d >= 0 && st.Rounds > nf*d {
			return fmt.Errorf("Theorem 3: %d rounds > |F|·d = %d·%d", st.Rounds, nf, d)
		}
	}
	return nil
}

// confRerun reports whether a cell runs twice on its deployment: every
// algorithm whose sites start from prepared engines — dGPM, dGPMNOpt,
// dGPMd and dGPMt — unless the cell opens no session (dGPMd with a
// cyclic Q, answered ∅ on a DAG G).
func confRerun(algo Algorithm, q *Pattern) bool {
	switch algo {
	case AlgoDGPM, AlgoDGPMNoOpt, AlgoDGPMt:
		return true
	case AlgoDGPMd:
		return q.IsDAG()
	}
	return false
}

// confModes are the transport backends the matrix runs over: the
// in-process channel network, a deployment spanning two dgsd site
// servers over loopback TCP, and the same TCP deployment with
// heartbeats on, so PING/PONG frames interleave with every algorithm's
// sessions (the miss threshold is far out of reach: the mode exercises
// the interleaving, not loss detection). That third mode keeps the
// subtest name "tcp-v1" the test ledger has tracked since it pinned
// wire protocol 1; there is one protocol version now.
// extra returns per-deployment DeployOptions (each TCP mode starts its
// daemons once per test run and reuses them — a daemon serves one
// deployment at a time and resets in between).
func confModes(t *testing.T) []struct {
	name  string
	extra func(t *testing.T) []DeployOption
} {
	t.Helper()
	var tcpAddrs, tcpBeatAddrs []string
	return []struct {
		name  string
		extra func(t *testing.T) []DeployOption
	}{
		{"inproc", func(t *testing.T) []DeployOption { return nil }},
		{"tcp", func(t *testing.T) []DeployOption {
			if testing.Short() {
				t.Skip("loopback-TCP matrix skipped in -short mode")
			}
			if tcpAddrs == nil {
				tcpAddrs = startSiteServers(t, 2)
			}
			return []DeployOption{WithRemoteSites(tcpAddrs...)}
		}},
		{"tcp-v1", func(t *testing.T) []DeployOption {
			if testing.Short() {
				t.Skip("loopback-TCP matrix skipped in -short mode")
			}
			if tcpBeatAddrs == nil {
				tcpBeatAddrs = startSiteServers(t, 2)
			}
			return []DeployOption{WithRemoteSites(tcpBeatAddrs...), WithHeartbeat(25*time.Millisecond, 400)}
		}},
	}
}

// TestConformanceMatrix — all seven algorithms, plus dGPM with push off
// and with θ = 0, × {cyclic, DAG, tree} workloads × {Random, Blocks,
// TargetRatio, LDG, Fennel} partitions × {in-process, loopback-TCP}
// transports agree with centralized Simulate, and each arm pushes the
// same messages and bytes on every transport. Every cell meets the
// paper's shipment bounds (confClaims) and Fig. 6's DS ordering against
// dMes, and reproduces its line of the golden file (confGolden): answer,
// push, shipment and report bytes. Every dGPM, dGPMNOpt, dGPMd and dGPMt
// cell that opens a session runs twice on its deployment (confRerun), the
// second time on engines restored from prepared state, with the same
// answer, push and shipment, and — dGPMNOpt aside — no engine built.
// Combinations outside an algorithm's preconditions (dGPMd needs a DAG
// pattern or DAG graph; dGPMt needs a tree graph) are skipped
// explicitly. On the TCP backend every deployment spans two dgsd
// processes' worth of site servers and must additionally report real
// measured wire bytes.
func TestConformanceMatrix(t *testing.T) {
	ctx := context.Background()
	arms := confArms()
	pushed := make(map[string]confPush)     // by cell name, from the first transport that ran it
	shipped := make(map[string]confTraffic) // likewise
	golden := readConfGolden(t)
	seen := make(map[string]string) // under -update, the lines this run produced, by cell name
	for _, mode := range confModes(t) {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			covered := make(map[Algorithm]bool)
			defaultPushBytes := int64(0)
			for _, wl := range confWorkloads(t) {
				for pname, part := range confPartitions(t, wl) {
					dep, err := Deploy(part, mode.extra(t)...)
					if err != nil {
						t.Fatal(err)
					}
					for _, cq := range wl.queries {
						oracle := Simulate(cq.q, wl.g)
						ds := make(map[string]int64) // by arm name, for the DS ordering
						for _, arm := range arms {
							algo := arm.algo
							name := fmt.Sprintf("%s/%s/%s/%s", wl.name, pname, cq.name, arm.name)
							t.Run(name, func(t *testing.T) {
								opts := arm.opts
								switch algo {
								case AlgoDGPMd:
									if !cq.q.IsDAG() && !wl.gIsDAG {
										t.Skip("dGPMd needs a DAG pattern or a DAG graph")
									}
									if wl.gIsDAG {
										opts = append(opts, WithGraphIsDAG())
									}
								case AlgoDGPMt:
									if !wl.gIsTree {
										t.Skip("dGPMt needs a tree data graph")
									}
									if pname != "ConnectedTree" {
										t.Skip("dGPMt needs connected-subtree fragments (Corollary 4)")
									}
								}
								res, err := dep.Query(ctx, cq.q, append(opts, WithAlgorithm(algo))...)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								if !res.Match.Equal(oracle) {
									t.Fatalf("%s: diverges from Simulate\noracle %v\ngot    %v", name, oracle, res.Match)
								}
								traffic := res.Stats.DataBytes + res.Stats.ControlBytes + res.Stats.ResultBytes
								if dep.Remote() && traffic > 0 && res.Stats.WireBytes == 0 {
									t.Fatalf("%s: remote query reported no measured wire bytes", name)
								}
								if !dep.Remote() && res.Stats.WireBytes != 0 {
									t.Fatalf("%s: in-process query reported wire bytes", name)
								}
								got := confPush{res.Stats.PushMsgs, res.Stats.PushBytes}
								if want, seen := pushed[name]; seen && got != want {
									t.Fatalf("%s: pushed %+v, but %+v on an earlier transport", name, got, want)
								}
								pushed[name] = got
								tr := confTrafficOf(algo, res.Stats)
								if want, seen := shipped[name]; seen && tr != want {
									t.Fatalf("%s: shipped %+v, but %+v on an earlier transport", name, tr, want)
								}
								shipped[name] = tr
								line := confLine(name, res.Match, got, tr, res.Stats.ResultBytes)
								if *update {
									seen[name] = line
								} else if want := golden[name]; line != want {
									t.Fatalf("golden mismatch (go test -run TestConformanceMatrix -update rewrites %s)\nwant %q\ngot  %q", confGolden, want, line)
								}
								ds[arm.name] = res.Stats.DataBytes
								if err := confClaims(algo, pname, cq.q, part, res.Stats); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								if confRerun(algo, cq.q) {
									// Again on the same deployment: every site now restores
									// its engine from the state an earlier run filed on its
									// fragment's index, and must answer and ship as a fresh
									// build did. (dGPMNOpt's rebuilds per message are
									// fresh builds by design.)
									builds, _ := dgpm.EngineCounts()
									again, err := dep.Query(ctx, cq.q, append(opts, WithAlgorithm(algo))...)
									if err != nil {
										t.Fatalf("%s, again: %v", name, err)
									}
									if !again.Match.Equal(oracle) {
										t.Fatalf("%s, again: diverges from Simulate", name)
									}
									if p := (confPush{again.Stats.PushMsgs, again.Stats.PushBytes}); p != got {
										t.Fatalf("%s, again: pushed %+v, fresh %+v", name, p, got)
									}
									if a := confTrafficOf(algo, again.Stats); a != tr {
										t.Fatalf("%s, again: shipped %+v, fresh %+v", name, a, tr)
									}
									if b, _ := dgpm.EngineCounts(); algo != AlgoDGPMNoOpt && b != builds {
										t.Fatalf("%s, again: %d engines built, want every one restored", name, b-builds)
									}
								}
								switch arm.name {
								case "dGPM":
									defaultPushBytes += got.bytes
								case "dGPM-nopush":
									if got != (confPush{}) {
										t.Fatalf("%s: push disabled, yet pushed %+v", name, got)
									}
								case "dGPM-theta0":
									if def := pushed[fmt.Sprintf("%s/%s/%s/dGPM", wl.name, pname, cq.name)]; got.bytes < def.bytes {
										t.Fatalf("%s: θ=0 pushed %+v, less than the default θ's %+v", name, got, def)
									}
								}
								covered[algo] = true
							})
						}
						// Fig. 6's DS ordering, per cell: dGPM and dGPMd ship no
						// more than dMes. (DS(dGPM) ≤ DS(disHHK) does not hold per
						// cell at this scale: high-cut cells break it.)
						for _, a := range []string{"dGPM", "dGPMd"} {
							if got, ok := ds[a]; ok && got > ds["dMes"] {
								t.Errorf("%s/%s/%s: %s shipped %d B, more than dMes's %d B", wl.name, pname, cq.name, a, got, ds["dMes"])
							}
						}
					}
					dep.Close()
				}
			}
			for _, algo := range confAlgos {
				if !covered[algo] {
					t.Fatalf("algorithm %s was never exercised by the matrix", algo)
				}
			}
			if defaultPushBytes == 0 {
				t.Fatal("no cell of the matrix pushed at the default θ: the push-on arm guards nothing")
			}
		})
	}
	if *update {
		writeConfGolden(t, seen)
	}
}
