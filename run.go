package dgs

import (
	"sort"
	"strings"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/obs"
)

// Algorithm selects a distributed evaluation strategy.
type Algorithm int

const (
	// AlgoDGPM is the paper's partition-bounded algorithm with both §4.2
	// optimizations (incremental lEval + push, θ=0.2). Theorem 2.
	AlgoDGPM Algorithm = iota
	// AlgoDGPMNoOpt is dGPM without incremental evaluation or push — the
	// dGPMNOpt baseline of §6.
	AlgoDGPMNoOpt
	// AlgoDGPMd is the rank-scheduled algorithm for DAG patterns or DAG
	// data graphs. Theorem 3.
	AlgoDGPMd
	// AlgoDGPMt is the two-round algorithm for tree data graphs with
	// connected fragments. Corollary 4.
	AlgoDGPMt
	// AlgoMatch ships every fragment to one site and evaluates centrally
	// (the naive algorithm of §3.1).
	AlgoMatch
	// AlgoDisHHK is the candidate-subgraph-shipping algorithm of Ma et
	// al. WWW'12 [25].
	AlgoDisHHK
	// AlgoDMes is the vertex-centric Pregel-style algorithm [14,26].
	AlgoDMes
)

// algorithmNames is the one name table: per constant, the name used in
// the paper's figures. Its lowercase form is the name the CLIs and the
// gateway accept.
//
//dgsvet:exhaustive
var algorithmNames = [...]string{
	AlgoDGPM:      "dGPM",
	AlgoDGPMNoOpt: "dGPMNOpt",
	AlgoDGPMd:     "dGPMd",
	AlgoDGPMt:     "dGPMt",
	AlgoMatch:     "Match",
	AlgoDisHHK:    "disHHK",
	AlgoDMes:      "dMes",
}

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algorithmNames) {
		return "unknown"
	}
	return algorithmNames[a]
}

// ParseAlgorithm is the inverse of String, case-insensitive: it accepts
// the figure name and the lowercase CLI/HTTP name ("dgpm", "dmes", ...).
func ParseAlgorithm(name string) (Algorithm, bool) {
	for a, n := range algorithmNames {
		if strings.EqualFold(name, n) {
			return Algorithm(a), true
		}
	}
	return 0, false
}

// AlgorithmNames lists the lowercase algorithm names, sorted.
func AlgorithmNames() []string {
	out := make([]string, len(algorithmNames))
	for a, n := range algorithmNames {
		out[a] = strings.ToLower(n)
	}
	sort.Strings(out)
	return out
}

// Stats reports one query's cost metrics: PT (wall-clock response time)
// and DS (exact encoded bytes of protocol data shipped between sites),
// the two axes of every figure in §6, plus supporting detail. Concurrent
// queries on one Deployment each get their own isolated Stats.
type Stats struct {
	// Wall is the response time (PT): from posting Q to assembled Q(G).
	Wall time.Duration
	// DataBytes is the data shipment (DS): falsifications, rank batches,
	// pushed equations, shipped subgraphs, candidate vectors.
	DataBytes int64
	// DataMsgs counts data messages.
	DataMsgs int64
	// PushBytes and PushMsgs are the share of DataBytes and DataMsgs that
	// travelled as pushed equations (dGPM's §4.2 push operation): zero
	// when every site's benefit test declined.
	PushBytes int64
	PushMsgs  int64
	// ControlBytes counts coordination traffic (query posting, votes,
	// changed flags), reported separately as in the paper.
	ControlBytes int64
	// ResultBytes counts the final match collection (the answer itself).
	ResultBytes int64
	// Rounds counts algorithm-defined communication rounds (supersteps
	// for dMes, evaluation rounds for dGPM, waves for dGPMd).
	Rounds int64
	// MaxSiteBusy is the busiest site's cumulative compute time.
	MaxSiteBusy time.Duration
	// WireBytes is the measured transport traffic of the query: real
	// socket bytes (frame headers included) on a WithRemoteSites
	// deployment, 0 in-process. DataBytes above counts exact payload
	// encodings on both transports.
	WireBytes int64
}

func fromCluster(s cluster.Stats) Stats {
	return Stats{
		Wall:         s.Wall,
		DataBytes:    s.DataBytes,
		DataMsgs:     s.DataMsgs,
		PushBytes:    s.PushBytes,
		PushMsgs:     s.PushMsgs,
		ControlBytes: s.ControlBytes,
		ResultBytes:  s.ResultBytes,
		Rounds:       s.Rounds,
		MaxSiteBusy:  s.MaxSiteBusy,
		WireBytes:    s.WireBytes,
	}
}

// QueryTrace is one traced query's span tree: per-site, per-round
// busy time and message/byte counts, assembled after the session
// closed (WithTrace). Totals sums the spans; Flame renders a
// human-readable per-site flame summary.
type QueryTrace = obs.QueryTrace

// SiteTrace is one site's recorded spans within a QueryTrace; site
// obs.CoordinatorSite (-1) is the driver-side coordinator.
type SiteTrace = obs.SiteTrace

// RoundSpan is one (site, round) span of a QueryTrace.
type RoundSpan = obs.RoundSpan

// Result is the outcome of a distributed evaluation.
type Result struct {
	Match *Match
	Stats Stats
	// Version is the deployment's graph version the query evaluated
	// against (see Deployment.Version). Apply serializes with queries, so
	// the whole evaluation observed exactly this version.
	Version uint64
	// Trace is the query's span tree when it ran with WithTrace, nil
	// otherwise (and nil for planner short-circuits, which open no
	// session). On a TCP deployment that lost a daemon before it
	// reported, the trace comes back with Complete=false: the
	// driver-side spans are present, the unreachable sites' missing.
	Trace *QueryTrace
}
