// Command dgsd is the dgs site-server daemon: it hosts graph fragments
// shipped by a driver over TCP and runs their site actors for every
// session the driver opens — queries, live-update distribution, and
// standing-query maintenance. One daemon backs one deployment at a time
// (like one EC2 instance in the paper's §6 setup) and resets when its
// driver disconnects, ready for the next.
//
// Usage:
//
//	dgsd -listen :7332
//	dgsd -listen :7332 -metrics :9332   # Prometheus /metrics + pprof
//
// Then, from the driver side, either the library:
//
//	dep, err := dgs.Deploy(part, dgs.WithRemoteSites("site1:7332", "site2:7332"))
//
// or the CLI:
//
//	dgsrun -connect site1:7332,site2:7332 -algo dgpm ...
//
// The daemon can serve every algorithm compiled into it (this binary
// imports all of them; the startup line lists the registry). It answers
// the driver's PING heartbeats and accepts REDEPLOY frames, so a
// deployment that loses a sibling daemon can re-host the lost fragments
// here without restarting anything — a daemon listed as a spare
// (dgs.WithSpareSites) idles until that moment. Protocol
// details — handshake, fragment shipping, framing, versioning,
// heartbeats, failover and tracing — are in docs/WIRE.md.
//
// -metrics starts a second HTTP listener exposing the daemon's
// counters in Prometheus text format at GET /metrics and the standard
// net/http/pprof profiling endpoints under /debug/pprof/ (see
// docs/OBSERVABILITY.md). The main site-serving port carries only the
// binary wire protocol, so observability traffic never competes with
// session frames for a parser.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"dgs/internal/buildinfo"
	"dgs/internal/dgpm"
	"dgs/internal/obs"
	"dgs/internal/transport/tcpnet"

	// Imported for their cluster-registry entries: a daemon can only
	// instantiate sites for algorithms linked into it.
	_ "dgs/internal/baseline"
	_ "dgs/internal/dagcheck"
)

func main() {
	var (
		listen  = flag.String("listen", ":7332", "TCP address to serve sites on")
		metrics = flag.String("metrics", "", "HTTP address for GET /metrics and /debug/pprof (off when empty)")
		quiet   = flag.Bool("quiet", false, "suppress connection lifecycle logging")
		version = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dgsd", buildinfo.Version())
		return
	}
	srv := &tcpnet.Server{}
	if *quiet {
		srv.Logf = func(string, ...any) {}
	} else {
		// Lifecycle lines go out as structured records; the printf-style
		// message the transport composes becomes the msg field.
		logger := slog.With("component", "dgsd", "listen", *listen)
		srv.Logf = func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		}
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		srv.RegisterMetrics(reg)
		reg.CounterFunc("dgsd_engine_builds_total",
			"dGPM engines built from scratch (the seed fixpoint run).",
			func() float64 { b, _ := dgpm.EngineCounts(); return float64(b) })
		reg.CounterFunc("dgsd_engine_restores_total",
			"dGPM engines restored from prepared state (the seed fixpoint skipped).",
			func() float64 { _, r := dgpm.EngineCounts(); return float64(r) })
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ms := &http.Server{Addr: *metrics, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ms.ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "dgsd: metrics listener:", err)
				os.Exit(1)
			}
		}()
	}
	if err := tcpnet.ListenAndServe(*listen, srv); err != nil {
		fmt.Fprintln(os.Stderr, "dgsd:", err)
		os.Exit(1)
	}
}
