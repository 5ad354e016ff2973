package main

// The five workloads: what each deploys, the ops it issues, and the
// inputs generated from the seed. The seed draws the op order and the
// edges the updates touch. The graph, its fragmentation and the catalog
// are the same for every seed: the driver accepts the benchmark only if
// ten different seeds agree within each metric's bound, and a redrawn
// graph alone moves query latency by 7–10% and dMes data shipment by 9%
// (a redrawn ldg fragmentation: data shipment by 4%) — against 2–4% and
// 0.2% between runs of one seed.

import (
	"bytes"
	"fmt"
	"math/rand"

	"dgs"
	"dgs/internal/graph"
	"dgs/internal/pattern"
)

// catalogSize is the number of patterns every workload queries.
const catalogSize = 8

// fixedSeed draws the graph (dgs.GenWeb), its fragmentation and the
// catalog: pattern i is
// GenCyclicPatternOver(dict, 4+i%2, 6+i%3, 4, fixedSeed+300+i).
const fixedSeed = 1

// spec describes one workload.
type spec struct {
	Name, Why    string
	Nodes, Edges int
	Sites        int
	Part         string // registered partitioner
	Algo         dgs.Algorithm
	AlgoName     string // the gateway's name for Algo
	Daemons      int    // dgsd processes hosting the sites; 0 = in-process
	Gateway      bool   // drive a dgsgw process over HTTP
	Watches      int    // standing queries (catalog patterns 0..Watches-1)
	// RateHz, when set, makes the load an open loop at that fixed rate
	// over two connections; otherwise one client runs a closed loop.
	RateHz float64
	// Weights skews which catalog pattern a query draws; nil is uniform.
	Weights []int
	// Setups is how many times a run sets the system up; setup_s is their
	// median.
	Setups int
}

var workloads = []spec{
	{Name: wlLocal, Nodes: 300_000, Edges: 1_500_000, Sites: 8, Part: "blocks", Setups: 5,
		Why: "library use, 8 big fragments, small cut: dgpm engine build, push extraction and local fixpoint are nearly all the CPU; a dgpm, partition.Index or plan change shows here, a transport change must not"},
	{Name: wlFanout, Nodes: 60_000, Edges: 300_000, Sites: 64, Part: "ldg", Daemons: 2, Setups: 3,
		Why: "the deployed shape: driver to 2 dgsd over TCP, 64 sites, 64% boundary; per-site dgpm work x63 parents and ~11k falsifications cross real sockets, so push extraction, hub routing and wire overhead show"},
	{Name: wlMsgstorm, Nodes: 15_000, Edges: 75_000, Sites: 64, Part: "ldg", Daemons: 2, Setups: 3,
		Algo: dgs.AlgoDMes,
		Why:  "transport-bound: vertex-centric dMes ships ~200k messages and ~10 MB of wire per query while dgpm does nothing; tcpnet, wire decode and cluster routing are the profile, a dgpm change must not move it"},
	{Name: wlGateway, Nodes: 60_000, Edges: 300_000, Sites: 8, Part: "ldg", Daemons: 2, Gateway: true, Setups: 5,
		AlgoName: "dgpm", RateHz: 20, Weights: []int{40, 20, 13, 10, 8, 4, 3, 2},
		Why: "the serving stack as processes (dgsgw + 2 dgsd), HTTP open loop at 20 req/s, 95% skewed queries, 5% edge deletions: p50 is the cache-hit path, p95 the post-invalidation miss path through the sockets"},
	{Name: wlMaintain, Nodes: 60_000, Edges: 300_000, Sites: 8, Part: "blocks", Watches: 4, Setups: 5,
		Why: "standing queries under updates: 4 Watch handles, deletion batches, an insertion every 10th, a query every 5th; dgpm maintenance, in-place fragment mutation and Fragment.Index rebuilds on the clock"},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to what a unit test can afford; the shape —
// sites, partitioner, op mix — stays.
func (s spec) smoke() spec {
	s.Nodes /= 20
	s.Edges /= 20
	s.Setups = 1
	return s
}

// opKind says what an op does.
type opKind uint8

const (
	opQuery opKind = iota
	opDelete
	opInsert
)

func (k opKind) String() string {
	return [...]string{"query", "delete", "insert"}[k]
}

// op is one entry of a workload's op stream.
type op struct {
	Kind  opKind
	Pat   int          // catalog index of a query
	Batch []dgs.EdgeOp // an update's edges
	Trace bool         // evaluate with tracing (the replay's queries)
}

// inputs is everything a run derives from the seed before any clock
// starts.
type inputs struct {
	spec spec
	seed int64
	dict *dgs.Dict
	g    *dgs.Graph
	// dgsg1 is g in the DGSG1 format — what dgsgw is handed, and what the
	// oracle's and the probes' copy of the graph is read from.
	dgsg1 []byte
	// twin is the benchmark's own copy of g: the oracle replays updates
	// on it and the layer probes fragment it, so neither touches the
	// deployed objects.
	twin     *graph.Graph
	catalog  []*dgs.Pattern
	twinCat  []*pattern.Pattern
	patterns []string // the catalog in the pattern DSL
	ops      []op
}

// maxUpdateShare caps the pre-drawn deletions at this share of |E|, so a
// long run cannot hollow the graph out.
const maxUpdateShare = 0.25

func generate(s spec, seed int64, seconds float64) (*inputs, error) {
	in := &inputs{spec: s, seed: seed, dict: dgs.NewDict()}
	in.g = dgs.GenWeb(in.dict, s.Nodes, s.Edges, fixedSeed)
	var buf bytes.Buffer
	if err := in.g.WriteBinary(&buf); err != nil {
		return nil, fmt.Errorf("encode graph: %w", err)
	}
	in.dgsg1 = buf.Bytes()
	twin, err := graph.ReadBinary(bytes.NewReader(in.dgsg1))
	if err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	in.twin = twin
	for i := 0; i < catalogSize; i++ {
		q := dgs.GenCyclicPatternOver(in.dict, 4+i%2, 6+i%3, 4, fixedSeed+300+int64(i))
		tq, err := pattern.Parse(twin.Dict(), q.String())
		if err != nil {
			return nil, fmt.Errorf("catalog pattern %d: %w", i, err)
		}
		in.catalog = append(in.catalog, q)
		in.twinCat = append(in.twinCat, tq)
		in.patterns = append(in.patterns, q.String())
	}
	in.ops = opStream(s, in.g, seed, seconds)
	return in, nil
}

// opStream draws the workload's ops. A closed-loop stream is longer than
// any run can consume and the clock cuts it; the open loop issues exactly
// rate × seconds ops.
func opStream(s spec, g *dgs.Graph, seed int64, seconds float64) []op {
	r := rand.New(rand.NewSource(seed))
	draw := patternDrawer(s.Weights, r)
	switch {
	case s.Gateway:
		n := int(s.RateHz * seconds)
		dels := dgs.GenUpdateStream(g, n/20+1, 0, seed+1)
		ops := make([]op, 0, n)
		for i := 0; i < n; i++ {
			if i%20 == 19 {
				ops = append(ops, op{Kind: opDelete, Batch: dels[:1]})
				dels = dels[1:]
			} else {
				ops = append(ops, op{Kind: opQuery, Pat: draw()})
			}
		}
		return ops
	case s.Watches > 0:
		// D D D D D Q D D D D D Q I, repeated. 100 cycles a second is ten
		// times what completes today; maxUpdateShare bounds the deletions.
		const batch = 8
		cycles := int(100 * seconds)
		if most := int(maxUpdateShare*float64(g.NumEdges())) / (10 * batch); cycles > most {
			cycles = most
		}
		dels := dgs.BatchOps(dgs.GenUpdateStream(g, cycles*10*batch, 0, seed+1), batch)
		ins := dgs.BatchOps(dgs.GenUpdateStream(g, 0, cycles*batch, seed+2), batch)
		ops := make([]op, 0, cycles*13)
		for c := 0; c < cycles; c++ {
			for i := 0; i < 10; i++ {
				ops = append(ops, op{Kind: opDelete, Batch: dels[c*10+i]})
				if i%5 == 4 {
					ops = append(ops, op{Kind: opQuery, Pat: draw()})
				}
			}
			ops = append(ops, op{Kind: opInsert, Batch: ins[c]})
		}
		return ops
	default:
		n := int(1000 * seconds)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{Kind: opQuery, Pat: draw()}
		}
		return ops
	}
}

// patternDrawer returns the seed-driven choice of the next query's
// catalog pattern: shuffled passes over a deck that holds pattern i
// weights[i] times (once each when weights is nil). Every pass asks each
// pattern exactly as often as its weight says, so runs of different
// seeds do the same work in a different order.
func patternDrawer(weights []int, r *rand.Rand) func() int {
	var deck []int
	for i := 0; i < catalogSize; i++ {
		n := 1
		if weights != nil {
			n = weights[i]
		}
		for ; n > 0; n-- {
			deck = append(deck, i)
		}
	}
	var pass []int
	return func() int {
		if len(pass) == 0 {
			pass = append(pass, deck...)
			r.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		}
		p := pass[0]
		pass = pass[1:]
		return p
	}
}
