// Command dgsgw is the dgs query gateway: an HTTP daemon that deploys
// one data graph — in-process, or shipped to remote dgsd site servers
// over TCP — and serves pattern queries against the resident fragments
// with a version-tagged result cache, request coalescing, and admission
// control (bounded concurrency + bounded queue + overload rejection).
//
// Endpoints (docs/HTTP.md is the spec):
//
//	POST /query    pattern DSL in, match relation + stats out
//	POST /apply    edge-update batch in; bumps the graph version,
//	               invalidating every cached result
//	GET  /stats    serving counters: hit rate, in-flight, queue depth
//	GET  /healthz  liveness + build version + graph version
//	GET  /metrics  Prometheus text exposition: gateway, driver and
//	               transport metrics on one page (docs/OBSERVABILITY.md)
//
// Usage:
//
//	dgsgw -listen :7333 -gen web -nodes 60000 -edges 300000 -frags 8
//	dgsgw -listen :7333 -connect site1:7332,site2:7332 -frags 8
//
// With -connect the fragments live in dgsd processes and every site
// message crosses a real socket; the gateway is then the paper's
// coordinator with a serving front-end bolted on. Try it:
//
//	curl -s localhost:7333/query -d '{"pattern":"node a l0\nnode b l1\nedge a b"}'
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"dgs"
	"dgs/internal/buildinfo"
	"dgs/internal/serve"
)

func main() {
	var (
		listen    = flag.String("listen", ":7333", "HTTP address to serve the gateway API on")
		connect   = flag.String("connect", "", "comma-separated dgsd addresses: ship the fragments over TCP instead of hosting them in-process")
		gen       = flag.String("gen", "web", "generator: web|citation|synthetic|tree|chain")
		graphFile = flag.String("graph", "", "load a DGSG1 graph instead of generating")
		nodes     = flag.Int("nodes", 60000, "generated |V|")
		edges     = flag.Int("edges", 300000, "generated |E|")
		frags     = flag.Int("frags", 8, "number of fragments |F|")
		partName  = flag.String("part", "", "partitioner strategy: "+strings.Join(dgs.Partitioners(), "|")+" (default targetratio)")
		vf        = flag.Float64("vf", 0.25, "target |Vf|/|V| ratio for targetratio")
		seed      = flag.Int64("seed", 1, "random seed")
		algoName  = flag.String("algo", "dgpm", "default algorithm for requests that don't name one: "+strings.Join(dgs.AlgorithmNames(), "|"))
		inflight  = flag.Int("max-inflight", 4, "admission: concurrently executing evaluations")
		queue     = flag.Int("max-queue", 64, "admission: queries waiting for a slot before shedding")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-query deadline")
		cacheSize = flag.Int("cache", 1024, "result cache entries; 0 or negative disables caching")
		slowQuery = flag.Duration("slow-query", 0, "log queries at or over this latency (0 disables the slow-query log)")
		withPprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the gateway listener")
		quiet     = flag.Bool("quiet", false, "suppress startup logging")
		version   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dgsgw", buildinfo.Version())
		return
	}
	// One structured logger for the whole process: startup lines here,
	// slow-query records from the serving layer. -quiet silences it.
	var logw io.Writer = os.Stdout
	if *quiet {
		logw = io.Discard
	}
	logger := slog.New(slog.NewTextHandler(logw, nil)).With("component", "dgsgw")
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
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
		// The Fig-2 chain gadget: deterministic edges ((2i,2i+1), (2i+1,
		// 2i+2), closing edge), which gives smoke tests a known edge to
		// delete via /apply.
		g = dgs.GenChain(dict, *nodes, true)
	default:
		fail(fmt.Errorf("unknown generator %q", *gen))
	}
	logf("dgsgw %s", buildinfo.Version())
	logf("graph:     %v", g)

	var part *dgs.Partition
	var err error
	if *partName != "" {
		part, err = dgs.PartitionWith(g, *partName, *frags,
			dgs.WithPartitionSeed(*seed), dgs.WithPartitionMetric(dgs.ByVf),
			dgs.WithPartitionTarget(*vf))
	} else {
		part, err = dgs.PartitionTargetRatio(g, *frags, dgs.ByVf, *vf, *seed)
	}
	if err != nil {
		fail(err)
	}
	logf("partition: %v [%s]", part, part.Strategy())

	var dopts []dgs.DeployOption
	if *connect != "" {
		addrs := strings.Split(*connect, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		dopts = append(dopts, dgs.WithRemoteSites(addrs...))
		logf("connect:   shipping %d fragments to %d dgsd site servers", *frags, len(addrs))
	}
	dep, err := dgs.Deploy(part, dopts...)
	if err != nil {
		fail(err)
	}
	defer dep.Close()

	if *cacheSize <= 0 {
		// The CLI convention: 0 turns the cache off. (The library's
		// Options zero value selects the default size instead.)
		*cacheSize = -1
	}
	srv := serve.New(dep, dict, serve.Options{
		MaxInFlight:    *inflight,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		CacheSize:      *cacheSize,
		Algorithm:      algo,
		SlowQuery:      *slowQuery,
		Logger:         logger,
	})
	cacheDesc := fmt.Sprintf("%d entries", *cacheSize)
	if *cacheSize < 0 {
		cacheDesc = "off"
	}
	logf("serving:   %s (default algo %s, cache %s, %d in-flight / %d queued)",
		*listen, algo, cacheDesc, *inflight, *queue)
	handler := srv.Handler()
	if *withPprof {
		// Profiling rides the gateway listener: the API mux takes every
		// path except the pprof namespace.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logf("pprof:     /debug/pprof/ enabled")
	}
	// Header/idle timeouts keep slow or stalled clients from pinning
	// connections below the admission gate (the gate bounds evaluations,
	// not sockets).
	hs := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if err := hs.ListenAndServe(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dgsgw:", err)
	os.Exit(1)
}
