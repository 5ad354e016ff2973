// Command dgsrun deploys one distributed data graph and evaluates a
// pattern query against the resident fragments with any of the library's
// algorithms, reporting the result plus PT/DS statistics.
//
// Usage:
//
//	dgsrun -algo dgpm  -gen web -nodes 300000 -edges 1500000 -frags 8 -vf 0.25 -query q.pat
//	dgsrun -algo dgpmd -gen citation -nodes 140000 -edges 300000 -frags 8 -qdiam 4
//	dgsrun -algo dgpmt -gen tree -nodes 100000 -frags 8
//	dgsrun -algo match -graph g.dgsg -query q.pat -frags 4
//	dgsrun -ec2 -repeat 5          # EC2-like link model, amortized serving
//	dgsrun -connect host1:7332,host2:7332   # sites live in dgsd daemons
//
// The query file uses the pattern DSL (node <name> <label> / edge <a> <b>);
// without -query a generated query is used. -repeat N answers the query
// N times on the one deployment — fragmentation is paid once, queries
// are served from residency (per-query stats are printed each time).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dgs"
	"dgs/internal/buildinfo"
)

func main() {
	var (
		algoName  = flag.String("algo", "dgpm", strings.Join(dgs.AlgorithmNames(), "|"))
		gen       = flag.String("gen", "web", "generator: web|citation|synthetic|tree|chain")
		graphFile = flag.String("graph", "", "load a DGSG1 graph instead of generating")
		nodes     = flag.Int("nodes", 60000, "generated |V|")
		edges     = flag.Int("edges", 300000, "generated |E|")
		frags     = flag.Int("frags", 8, "number of fragments |F|")
		partName  = flag.String("part", "", "partitioner strategy: "+strings.Join(dgs.Partitioners(), "|")+" (default: targetratio, or tree/chain as the algorithm requires)")
		slack     = flag.Float64("slack", 0.10, "balance slack for quality-first partitioners (ldg, fennel); ≤0 selects the default 10%")
		refine    = flag.Int("refine", 0, "incremental refinement passes after the base assignment")
		vf        = flag.Float64("vf", 0.25, "target |Vf|/|V| ratio (non-tree)")
		queryFile = flag.String("query", "", "pattern DSL file")
		qnodes    = flag.Int("qnodes", 5, "generated query |Vq|")
		qedges    = flag.Int("qedges", 10, "generated query |Eq|")
		qdiam     = flag.Int("qdiam", 4, "generated DAG query diameter (dgpmd)")
		seed      = flag.Int64("seed", 1, "random seed")
		boolean   = flag.Bool("bool", false, "Boolean query (report true/false only)")
		showAll   = flag.Bool("matches", false, "print the full match relation")
		explain   = flag.Bool("explain", false, "print the evaluation plan (orders, estimates, canonical key) and exit without evaluating")
		trace     = flag.Bool("trace", false, "evaluate with distributed tracing and print the per-site per-round span tree")
		ec2       = flag.Bool("ec2", false, "charge the EC2-like link cost model (paper §6)")
		repeat    = flag.Int("repeat", 1, "serve the query N times on the one deployment")
		connect   = flag.String("connect", "", "comma-separated dgsd addresses: deploy the fragments over TCP instead of in-process")
		version   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dgsrun", buildinfo.Version())
		return
	}

	algo, ok := dgs.ParseAlgorithm(*algoName)
	if !ok {
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	dict := dgs.NewDict()
	var g *dgs.Graph
	switch {
	case *graphFile != "":
		f, err := os.Open(*graphFile)
		if err != nil {
			fail(err)
		}
		gg, err := dgs.ReadGraph(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		g = gg
		dict = g.Dict()
	case *gen == "web":
		g = dgs.GenWeb(dict, *nodes, *edges, *seed)
	case *gen == "citation":
		g = dgs.GenCitation(dict, *nodes, *edges, *seed)
	case *gen == "synthetic":
		g = dgs.GenSynthetic(dict, *nodes, *edges, *seed)
	case *gen == "tree":
		g = dgs.GenTree(dict, *nodes, *seed)
	case *gen == "chain":
		g = dgs.GenChain(dict, *nodes, true)
	default:
		fail(fmt.Errorf("unknown generator %q", *gen))
	}
	fmt.Println("graph:    ", g)

	var q *dgs.Pattern
	var err error
	switch {
	case *queryFile != "":
		src, rerr := os.ReadFile(*queryFile)
		if rerr != nil {
			fail(rerr)
		}
		q, err = dgs.ParsePattern(dict, string(src))
	case algo == dgs.AlgoDGPMd:
		q, err = dgs.GenDAGPattern(dict, *qnodes+*qdiam, *qedges+*qdiam, *qdiam, *seed)
	case *gen == "chain":
		q = dgs.ChainQuery(dict)
	case algo == dgs.AlgoDGPMt:
		q = dgs.GenTreePattern(dict, *qnodes, *seed)
	default:
		q = dgs.GenCyclicPattern(dict, *qnodes, *qedges, *seed)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("query:     |Vq|=%d |Eq|=%d dag=%v\n", q.NumNodes(), q.NumEdges(), q.IsDAG())

	var part *dgs.Partition
	switch {
	case *partName != "":
		part, err = dgs.PartitionWith(g, *partName, *frags,
			dgs.WithPartitionSeed(*seed), dgs.WithPartitionMetric(dgs.ByVf),
			dgs.WithPartitionTarget(*vf), dgs.WithBalanceSlack(*slack),
			dgs.WithRefinePasses(*refine))
	case algo == dgs.AlgoDGPMt:
		part, err = dgs.PartitionTree(g, *frags)
	case *gen == "chain":
		part, err = dgs.PartitionChain(g, *frags)
	default:
		part, err = dgs.PartitionTargetRatio(g, *frags, dgs.ByVf, *vf, *seed)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("partition: %v [%s, built in %v]\n", part, part.Strategy(), part.BuildTime().Round(time.Millisecond))

	var dopts []dgs.DeployOption
	if *ec2 {
		dopts = append(dopts, dgs.WithNetwork(dgs.EC2Network()))
	}
	if *connect != "" {
		if *ec2 {
			fail(fmt.Errorf("-ec2 emulates a network; -connect uses a real one (pick one)"))
		}
		addrs := strings.Split(*connect, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		dopts = append(dopts, dgs.WithRemoteSites(addrs...))
		fmt.Printf("connect:   shipping %d fragments to %d dgsd site servers\n", *frags, len(addrs))
	}
	qopts := []dgs.QueryOption{dgs.WithAlgorithm(algo)}
	if *gen == "citation" {
		qopts = append(qopts, dgs.WithGraphIsDAG())
	}
	if *trace {
		qopts = append(qopts, dgs.WithTrace())
	}
	dopts = append(dopts, dgs.WithQueryDefaults(qopts...))
	dep, err := dgs.Deploy(part, dopts...)
	if err != nil {
		fail(err)
	}
	defer dep.Close()

	if *explain {
		pi, err := dep.Explain(q)
		if err != nil {
			fail(err)
		}
		fmt.Print(pi)
		return
	}

	ctx := context.Background()
	if *repeat < 1 {
		*repeat = 1
	}
	var res *dgs.Result
	for i := 0; i < *repeat; i++ {
		res, err = dep.Query(ctx, q)
		if err != nil {
			fail(err)
		}
		st := res.Stats
		if *repeat > 1 {
			fmt.Printf("query #%d:  PT=%v DS=%.2f KB\n", i+1, st.Wall.Round(0), float64(st.DataBytes)/1024)
		}
	}
	if *boolean {
		fmt.Println("matches:  ", res.Match.Ok())
	} else {
		fmt.Printf("matches:   ok=%v pairs=%d\n", res.Match.Ok(), res.Match.NumPairs())
	}
	st := res.Stats
	fmt.Printf("PT:        %v (busiest site %v)\n", st.Wall.Round(0), st.MaxSiteBusy.Round(0))
	fmt.Printf("DS:        %.2f KB in %d messages, %d B in %d pushes (+%d control B, +%d result B)\n",
		float64(st.DataBytes)/1024, st.DataMsgs, st.PushBytes, st.PushMsgs, st.ControlBytes, st.ResultBytes)
	if dep.Remote() {
		sent, received := dep.WireFrames()
		fmt.Printf("wire:      %.2f KB measured on the TCP path (frames + acks)\n", float64(st.WireBytes)/1024)
		fmt.Printf("frames:    %d sent / %d received across the deployment's sockets\n", sent, received)
	}
	fmt.Printf("rounds:    %d\n", st.Rounds)
	if *trace {
		if res.Trace != nil {
			fmt.Print(res.Trace.Flame())
		} else {
			fmt.Println("trace:     none (planner short-circuit: no session was opened)")
		}
	}
	if *showAll {
		for u := 0; u < q.NumNodes(); u++ {
			fmt.Printf("  %s -> %v\n", q.NodeName(dgs.QNode(u)), res.Match.MatchesOf(dgs.QNode(u)))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dgsrun:", err)
	os.Exit(1)
}
