package dgs

// Tests of the persistent Deployment API: fragment once, serve many —
// sequential and concurrent queries, context cancellation, per-query
// option handling (including the θ=0 regression), and lifecycle edges.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dgs/internal/cluster"
)

func deployWorld(t testing.TB) (*Graph, *Pattern, *Deployment) {
	t.Helper()
	dict := NewDict()
	g := GenSynthetic(dict, 2000, 8000, 42)
	q, err := ParsePattern(dict, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionTargetRatio(g, 4, ByVf, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	return g, q, dep
}

// dgpmShipped is the schedule-independent part of a dGPM query's data
// shipment: DataBytes net of the 5-byte header (kind + pair count) each
// message pays, which leaves 6 bytes per falsified variable shipped
// (plus the pushed equations and reroutes, decided once per site). A
// site ships every falsified in-node variable once per watcher however
// its mailbox was drained; how many messages — and how many rounds —
// carry them depends on how many envelopes it found queued when it woke.
func dgpmShipped(st Stats) int64 { return st.DataBytes - 5*st.DataMsgs }

// Two sequential queries on one deployment: both equal to the
// centralized ground truth, with isolated (and therefore identical)
// per-query shipment.
func TestDeployQuerySequential(t *testing.T) {
	g, q, dep := deployWorld(t)
	want := Simulate(q, g)
	ctx := context.Background()

	res1, err := dep.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := dep.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Match.Equal(want) || !res2.Match.Equal(want) {
		t.Fatal("sequential queries differ from centralized simulation")
	}
	// Stats are per-query: the second identical query must report the
	// same shipment, not an accumulation.
	if dgpmShipped(res1.Stats) != dgpmShipped(res2.Stats) || res1.Stats.PushBytes != res2.Stats.PushBytes {
		t.Fatalf("stats not isolated per query: %+v vs %+v", res1.Stats, res2.Stats)
	}
	if res1.Stats.DataMsgs == 0 {
		t.Fatal("expected data shipment on a 4-fragment world")
	}
}

// Concurrent queries on one deployment, across algorithms, must each
// return the exact centralized relation. Run under -race in tier-1.
func TestDeployQueryConcurrent(t *testing.T) {
	g, q, dep := deployWorld(t)
	want := Simulate(q, g)
	algos := []Algorithm{AlgoDGPM, AlgoDGPMNoOpt, AlgoDisHHK, AlgoDMes, AlgoMatch}

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(algos))
	for i := 0; i < 2*len(algos); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			algo := algos[i%len(algos)]
			res, err := dep.Query(context.Background(), q, WithAlgorithm(algo))
			if err != nil {
				errs <- fmt.Errorf("%s: %w", algo, err)
				return
			}
			if !res.Match.Equal(want) {
				errs <- fmt.Errorf("%s: concurrent result differs from centralized", algo)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Concurrent queries with different patterns: per-query sessions must
// not leak falsifications between each other's relations.
func TestDeployQueryConcurrentDistinctPatterns(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 2000, 8000, 42)
	part, err := PartitionTargetRatio(g, 4, ByVf, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	queries := make([]*Pattern, 6)
	for i := range queries {
		queries[i] = GenCyclicPatternOver(dict, 4, 7, 3, int64(50+i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q *Pattern) {
			defer wg.Done()
			res, err := dep.Query(context.Background(), q)
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if !res.Match.Equal(Simulate(q, g)) {
				errs <- fmt.Errorf("query %d: result differs from centralized", i)
			}
		}(i, q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A cancelled context aborts the query promptly with the context's
// error; the deployment stays usable for later queries.
func TestQueryContextCancellation(t *testing.T) {
	dict := NewDict()
	q := ChainQuery(dict)
	g := GenChain(dict, 32, false)
	part, err := PartitionChain(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	// A slow network makes the 32-hop causal falsification chain take
	// ~32×(latency+per-msg) ≫ the timeout.
	dep, err := Deploy(part, WithNetwork(Network{Latency: 20 * time.Millisecond, PerMsg: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// Already-cancelled context: immediate error.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dep.Query(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query err = %v, want context.Canceled", err)
	}

	// Same on a free-network deployment, where the protocol would
	// otherwise quiesce instantly: cancellation must win
	// deterministically, not race the fixpoint.
	fastDep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer fastDep.Close()
	if _, err := fastDep.Query(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fast query err = %v, want context.Canceled", err)
	}

	// Deadline mid-protocol: prompt return, not the full chain latency.
	ctx, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = dep.Query(ctx, q)
	el := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out query err = %v, want context.DeadlineExceeded", err)
	}
	if el > 2*time.Second {
		t.Fatalf("cancellation was not prompt: returned after %v", el)
	}

	// The abandoned query's traffic must not poison a fresh query.
	ok, _, err := dep.QueryBoolean(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("broken chain must not match")
	}
}

// WithPushTheta must honor an explicit θ=0 (always push) rather than
// reading it as "unset" and falling back to the 0.2 default.
func TestWithPushThetaHonorsZero(t *testing.T) {
	resolve := func(opts ...QueryOption) queryConfig {
		var qc queryConfig
		for _, o := range opts {
			o(&qc)
		}
		return qc
	}
	if cfg := resolve(WithPushTheta(0)).dgpmConfig(); cfg.Theta != 0 || !cfg.Push {
		t.Fatalf("WithPushTheta(0) resolved to %+v; θ=0 not honored", cfg)
	}
	if cfg := resolve().dgpmConfig(); cfg.Theta != 0.2 {
		t.Fatalf("default θ = %v, want 0.2", cfg.Theta)
	}
	if cfg := resolve(WithPushTheta(0.7)).dgpmConfig(); cfg.Theta != 0.7 {
		t.Fatalf("θ = %v, want 0.7", cfg.Theta)
	}

	// θ=0 (always push) must still produce the exact relation.
	g, q, dep := deployWorld(t)
	res, err := dep.Query(context.Background(), q, WithPushTheta(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(Simulate(q, g)) {
		t.Fatal("θ=0 result differs from centralized simulation")
	}
}

// Deployment-level query defaults apply to every query; per-query
// options override them.
func TestWithQueryDefaults(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 1000, 4000, 9)
	q, err := ParsePattern(dict, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionTargetRatio(g, 3, ByVf, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part, WithQueryDefaults(WithAlgorithm(AlgoDMes)))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	want := Simulate(q, g)

	res, err := dep.Query(context.Background(), q) // defaults → dMes
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(want) {
		t.Fatal("default-algorithm query differs from centralized")
	}
	if res.Stats.Rounds == 0 {
		t.Fatal("dMes reports supersteps; default algorithm not applied")
	}
	res2, err := dep.Query(context.Background(), q, WithAlgorithm(AlgoDGPM))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Match.Equal(want) {
		t.Fatal("override-algorithm query differs from centralized")
	}
}

// A failing query (precondition violation) must not wedge the
// deployment.
func TestQueryErrorLeavesDeploymentUsable(t *testing.T) {
	g, q, dep := deployWorld(t)
	// The synthetic graph is not a tree: dGPMt must refuse.
	if _, err := dep.Query(context.Background(), q, WithAlgorithm(AlgoDGPMt)); err == nil {
		t.Fatal("dGPMt accepted a non-tree graph")
	}
	res, err := dep.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(Simulate(q, g)) {
		t.Fatal("query after failed query differs from centralized")
	}
}

func TestQueryAfterCloseFails(t *testing.T) {
	_, q, dep := deployWorld(t)
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := dep.Query(context.Background(), q); err == nil {
		t.Fatal("query on a closed deployment succeeded")
	} else if !strings.Contains(err.Error(), "closed") {
		t.Fatalf("err = %v, want a closed-deployment error", err)
	}
}

// Close during an in-flight query aborts it with an error rather than
// hanging.
func TestCloseAbortsInFlightQuery(t *testing.T) {
	dict := NewDict()
	q := ChainQuery(dict)
	g := GenChain(dict, 32, false)
	part, err := PartitionChain(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part, WithNetwork(Network{Latency: 20 * time.Millisecond, PerMsg: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := dep.Query(context.Background(), q)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the protocol start
	dep.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("query on a closing deployment reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query hung across Close")
	}
}

func TestDeploymentAccessors(t *testing.T) {
	_, _, dep := deployWorld(t)
	if dep.NumSites() != 4 {
		t.Fatalf("NumSites = %d", dep.NumSites())
	}
	if dep.Partition() == nil || dep.Partition().NumFragments() != 4 {
		t.Fatal("Partition accessor wrong")
	}
	if _, err := Deploy(nil); err == nil {
		t.Fatal("Deploy(nil) accepted")
	}
	if _, err := dep.Query(context.Background(), nil); err == nil {
		t.Fatal("Query(nil pattern) accepted")
	}
	if _, err := dep.Query(context.Background(), mustPattern(t), WithAlgorithm(Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func mustPattern(t *testing.T) *Pattern {
	t.Helper()
	q, err := ParsePattern(NewDict(), "node a l0")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// The tree algorithm works through the deployment path too.
func TestDeployQueryTree(t *testing.T) {
	dict := NewDict()
	g := GenTree(dict, 3000, 5)
	q := GenTreePattern(dict, 4, 9)
	part, err := PartitionTree(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part, WithQueryDefaults(WithAlgorithm(AlgoDGPMt)))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	want := Simulate(q, g)
	for i := 0; i < 2; i++ {
		res, err := dep.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Match.Equal(want) {
			t.Fatalf("dGPMt query %d differs from centralized", i)
		}
		if res.Stats.Rounds != 2 {
			t.Fatalf("dGPMt rounds = %d", res.Stats.Rounds)
		}
	}
}

// The DAG algorithm works through the deployment path, both with the
// DAG-G assertion and with the distributed acyclicity check.
func TestDeployQueryDAG(t *testing.T) {
	dict := NewDict()
	g := GenCitation(dict, 3000, 9000, 5)
	q, err := GenDAGPattern(dict, 9, 13, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionTargetRatio(g, 4, ByVf, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	want := Simulate(q, g)
	res, err := dep.Query(context.Background(), q, WithAlgorithm(AlgoDGPMd), WithGraphIsDAG())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(want) {
		t.Fatal("dGPMd (asserted DAG) differs from centralized")
	}
	// Cyclic pattern without the assertion: the distributed acyclicity
	// check runs as its own session on the same deployment.
	cyc, err := ParsePattern(dict, "node a l0\nnode b l1\nedge a b\nedge b a")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := dep.Query(context.Background(), cyc, WithAlgorithm(AlgoDGPMd))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Match.Ok() {
		t.Fatal("cyclic pattern on a DAG graph must have an empty relation")
	}
}

// Regression: cluster.ErrClosed is documented "returned wrapped; test
// with errors.Is" — WaitQuiesce surfaces either the bare sentinel or
// the transport failure that killed the session, which may wrap it. A
// == comparison in Query's translation missed the wrapped form and
// leaked the raw cluster error instead of ErrClosed (caught by
// dgsvet's senterr analyzer).
func TestQueryAfterClusterFailureIsErrClosed(t *testing.T) {
	_, q, dep := deployWorld(t)
	// Poison the cluster underneath a still-open deployment the way a
	// dying transport does: a deployment-fatal failure wrapping the
	// sentinel.
	dep.c.Fail(0, fmt.Errorf("transport torn down: %w", cluster.ErrClosed))
	_, err := dep.Query(context.Background(), q)
	if err == nil {
		t.Fatal("query on a failed cluster succeeded")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("query error = %v, want errors.Is(err, ErrClosed)", err)
	}
}
