GO ?= go
FUZZTIME ?= 10s

.PHONY: tier1 vet dgsvet analyze analyze-fix build test race bench bench-check bench-smoke fuzz examples docs smoke-tcp gw-smoke obs-smoke failover-smoke api clean help

# tier1 is the gate every change must pass: static checks (go vet plus
# the project-specific dgsvet analyzers), full build, and the test suite
# under the race detector (the Deployment API serves concurrent
# queries; races are correctness bugs here), and bench-check, because
# benchmark/ is its own module that go build ./... does not see. The
# inner-loop benchmarks run once each so that they cannot rot.
tier1: vet dgsvet build race bench-check
	$(GO) test -run '^$$' -bench 'SiteHostStorm|RemoteStorm|EngineBuild|EnginePrepared|EngineInbound|WarmSession|IndexBuild|IndexPatch|FragmentHeap' -benchtime=1x ./internal/cluster ./internal/dgpm .

# vet also fails on unformatted code: gofmt -l over every tracked .go
# file outside testdata/ (analyzer fixtures such as wirecompletebad are
# deliberately malformed), listing the files to run gofmt -w on.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files -- '*.go' ':!:**/testdata/**')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

# dgsvet machine-checks the repo's own invariants (lock discipline,
# ctx-guarded blocking, wire-kind completeness, registry consistency,
# determinism, sentinel errors). See docs/ANALYSIS.md.
dgsvet:
	$(GO) run ./cmd/dgsvet

# analyze is the full static-analysis pass: dgsvet, then staticcheck and
# govulncheck (skipped with a notice when not installed; CI pins and
# installs them and sets ANALYZE_STRICT=1).
analyze: dgsvet
	./scripts/analyze.sh

# analyze-fix: there is no auto-fixer — dgsvet findings are either real
# bugs (fix the code) or deliberate (annotate the line with
# `//lint:allow <analyzer> — reason`). This target just reprints the
# findings to work through.
analyze-fix:
	@echo "dgsvet has no auto-fix: correct the code, or annotate deliberate"
	@echo "findings with '//lint:allow <analyzer> — reason' (docs/ANALYSIS.md)."
	@$(GO) run ./cmd/dgsvet || true

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-check keeps the benchmark module honest against this one: it
# imports the root packages through a replace directive, so a root API
# change can break its build without any root-module check noticing.
bench-check:
	$(GO) build -C benchmark -o /dev/null ./...
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run ./cmd/dgsvet -dir benchmark

# bench-smoke runs the layered benchmark's five workloads at 1/20 scale
# over real dgsd/dgsgw processes, 2 s each: it measures nothing, but
# every answer is checked against the benchmark's external oracle and the
# command exits 1 on a wrong result or a failed op — the end-to-end check
# bench-check (build and unit tests only) does not make.
bench-smoke:
	$(GO) run -C benchmark . -smoke -seconds 2

# fuzz runs each native fuzz target for FUZZTIME (go test -fuzz accepts
# one target per invocation). CI uses this as a smoke pass; let it run
# longer locally with FUZZTIME=5m.
fuzz:
	$(GO) test ./internal/wire -run=^$$ -fuzz=^FuzzDecode$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run=^$$ -fuzz=^FuzzDeltaRoundTrip$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run=^$$ -fuzz=^FuzzFrameRoundTrip$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run=^$$ -fuzz=^FuzzBatchRoundTrip$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/pattern -run=^$$ -fuzz=^FuzzParsePattern$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport/tcpnet -run=^$$ -fuzz=^FuzzDecodeOpen$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport/tcpnet -run=^$$ -fuzz=^FuzzDecodeDeploy$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport/tcpnet -run=^$$ -fuzz=^FuzzDecodeAckN$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/obs -run=^$$ -fuzz=^FuzzDecodeSpans$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/partition -run=^$$ -fuzz=^FuzzDecodeFragment$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cluster -run=^$$ -fuzz=^FuzzMatchFromPairs$$ -fuzztime=$(FUZZTIME)

# docs fails when any package lacks a package comment, an
# operator-facing document (README, wire spec) is missing/stale, or the
# public surface differs from its golden docs/API.txt.
docs:
	./scripts/lint_docs.sh

# api regenerates docs/API.txt, the golden of the public surface: the
# root package's exported API and the dgsrun/dgsd/dgsgw flag lists. An
# option or flag can then only appear or vanish in a diff someone reads.
api:
	./scripts/api_surface.sh > docs/API.txt

# smoke-tcp runs the two-terminal quickstart non-interactively: two real
# dgsd processes on loopback, one dgsrun -connect query per algorithm.
smoke-tcp:
	./scripts/tcp_smoke.sh

# gw-smoke runs the serving stack as separate processes: 2 dgsd site
# servers + 1 dgsgw gateway, asserting cache hit, update-driven
# invalidation and post-update recompute over HTTP.
gw-smoke:
	./scripts/gw_smoke.sh

# obs-smoke runs 2 dgsd (with -metrics) + 1 dgsgw and asserts the
# observability layer end to end: Prometheus exposition on daemon and
# gateway, /metrics agreeing with /stats, a complete distributed trace
# for a {"trace":true} query, TRACE-frame accounting, and pprof.
obs-smoke:
	./scripts/obs_smoke.sh

# failover-smoke kills one of three real dgsd processes mid-update-
# stream and requires the one driver process to fail over to a spare
# daemon and keep answering oracle-correct — no restarts.
failover-smoke:
	./scripts/failover_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/impossibility
	$(GO) run ./examples/trees
	$(GO) run ./examples/citation
	$(GO) run ./examples/social

clean:
	$(GO) clean ./...

# help lists the targets an operator actually reaches for.
help:
	@echo "dgs make targets:"
	@echo "  tier1            vet + dgsvet + build + race tests + bench-check + the inner-loop benchmarks once (the merge gate)"
	@echo "  analyze          dgsvet + staticcheck + govulncheck (ANALYZE_STRICT=1 in CI)"
	@echo "  analyze-fix      reprint dgsvet findings with fixing guidance"
	@echo "  test / race      test suite (plain / under the race detector)"
	@echo "  fuzz             fuzz targets for FUZZTIME each (default $(FUZZTIME))"
	@echo "  docs             documentation lint (package comments, specs, ANALYSIS.md, docs/API.txt golden)"
	@echo "  api              regenerate docs/API.txt (exported API + dgsrun/dgsd/dgsgw flags)"
	@echo "  bench            root-package benchmarks without a recorded twin (HHK, dGPMt, chain gadget, deploy amortization, warm dGPMd vs dGPM), one iteration"
	@echo "  bench-check      build + vet + test + dgsvet the benchmark/ module against this tree"
	@echo "  bench-smoke      the benchmark's five workloads at 1/20 scale, answers checked against the oracle"
	@echo "                   (executor inner loop, no daemons, seconds: go test -run '^$$' -bench SiteHostStorm ./internal/cluster)"
	@echo "                   (the message path over two loopback daemons at msgstorm-64-tcp's shape, seconds: go test -run '^$$' -bench RemoteStorm .)"
	@echo "                   (engine build inner loop at local-8's shape, seconds: go test -run '^$$' -bench EngineBuild ./internal/dgpm)"
	@echo "                   (the same engines restored from prepared state, seconds: go test -run '^$$' -bench EnginePrepared ./internal/dgpm)"
	@echo "                   (restored engines absorbing falsification streams, seconds: go test -run '^$$' -bench EngineInbound ./internal/dgpm)"
	@echo "                   (a warm query's site and assembly work, seconds: go test -run '^$$' -bench WarmSession ./internal/dgpm)"
	@echo "                   (index upkeep under maintain-8's deletion batches, seconds: go test -run '^$$' -bench IndexPatch ./internal/dgpm)"
	@echo "                   (warm dGPMd against warm dGPM on local-8's graph, seconds: go test -run '^$$' -bench WarmSessionDAG .)"
	@echo "  smoke-tcp        two dgsd processes on loopback, all algorithms"
	@echo "  gw-smoke         2 dgsd + 1 dgsgw over HTTP (cache + invalidation)"
	@echo "  obs-smoke        metrics exposition + distributed trace end to end"
	@echo "  failover-smoke   kill 1 of 3 dgsd mid-stream; driver fails over to a spare"
	@echo "  examples         run every example program"
