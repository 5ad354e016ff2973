package dgs

// Unit tests for the mutable-deployment API: Apply validation and
// semantics, Watch/Maintained lifecycle, interaction with one-shot
// queries, and the 256-site acceptance scenario (a 1% deletion stream
// against a watched query matching the fresh-recompute oracle at every
// batch).

import (
	"context"
	"fmt"
	"testing"
)

// miniWorld builds a small deployed world: a synthetic graph, a random
// partition, and a cyclic query with non-trivial matches.
func miniWorld(t testing.TB, nv, ne, nf int, seed int64) (*Dict, *Graph, *Partition, *Deployment, *Pattern) {
	t.Helper()
	dict := NewDict()
	g := GenSynthetic(dict, nv, ne, seed)
	part, err := PartitionWith(g, "random", nf, WithPartitionSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	q := GenCyclicPatternOver(dict, 4, 6, 4, seed+7)
	return dict, g, part, dep, q
}

func TestApplyValidation(t *testing.T) {
	_, g, _, dep, _ := miniWorld(t, 200, 600, 4, 1)
	ctx := context.Background()

	// Deleting an absent edge fails the whole batch atomically.
	var missing EdgeOp
	found := false
	for v := 0; v < g.NumNodes() && !found; v++ {
		for w := 0; w < g.NumNodes(); w++ {
			if !g.g.HasEdge(NodeID(v), NodeID(w)) {
				missing = DeleteOp(NodeID(v), NodeID(w))
				found = true
				break
			}
		}
	}
	var existing EdgeOp
	g.g.Edges(func(v, w NodeID) bool {
		existing = DeleteOp(v, w)
		return false
	})
	before := dep.Partition().CurrentGraph().NumEdges()
	if _, err := dep.Apply(ctx, []EdgeOp{existing, missing}); err == nil {
		t.Fatal("batch with an absent-edge deletion must fail")
	}
	if got := dep.Partition().CurrentGraph().NumEdges(); got != before {
		t.Fatalf("failed batch mutated the graph: %d -> %d edges", before, got)
	}

	// Inserting a present edge fails; out-of-range nodes fail.
	ins := InsertOp(existing.V, existing.W)
	if _, err := dep.Apply(ctx, []EdgeOp{ins}); err == nil {
		t.Fatal("inserting an existing edge must fail")
	}
	if _, err := dep.Apply(ctx, []EdgeOp{InsertOp(NodeID(g.NumNodes()), 0)}); err == nil {
		t.Fatal("out-of-range node must fail")
	}

	// Cancelling ops net out to a no-op batch.
	st, err := dep.Apply(ctx, []EdgeOp{existing, InsertOp(existing.V, existing.W)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deletions != 0 || st.Insertions != 0 || st.Delta.DataMsgs != 0 {
		t.Fatalf("cancelled batch distributed work: %+v", st)
	}
}

func TestApplyIsVisibleToQueries(t *testing.T) {
	dict := NewDict()
	// A -> B; query A->B matches until the edge is deleted, matches again
	// after re-insertion.
	b := NewGraphBuilder(dict)
	va := b.AddNode("A")
	vb := b.AddNode("B")
	b.AddEdge(va, vb)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionFromAssign(g, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	q, err := ParsePattern(dict, "node a A\nnode b B\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, algo := range []Algorithm{AlgoDGPM, AlgoDGPMNoOpt, AlgoMatch, AlgoDisHHK, AlgoDMes} {
		t.Run(algo.String(), func(t *testing.T) {
			res, err := dep.Query(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match.Ok() {
				t.Fatal("must match before deletion")
			}
		})
	}
	if _, err := dep.Apply(ctx, []EdgeOp{DeleteOp(va, vb)}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoDGPM, AlgoDGPMNoOpt, AlgoMatch, AlgoDisHHK, AlgoDMes} {
		t.Run("deleted/"+algo.String(), func(t *testing.T) {
			res, err := dep.Query(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			if res.Match.Ok() {
				t.Fatal("must not match after deletion")
			}
		})
	}
	if _, err := dep.Apply(ctx, []EdgeOp{InsertOp(va, vb)}); err != nil {
		t.Fatal(err)
	}
	res, err := dep.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Ok() {
		t.Fatal("must match again after re-insertion")
	}
	if part.CurrentGraph().NumEdges() != 1 {
		t.Fatalf("current graph has %d edges, want 1", part.CurrentGraph().NumEdges())
	}
}

func TestWatchMaintainsUnderDeletions(t *testing.T) {
	_, _, part, dep, q := miniWorld(t, 300, 900, 6, 2)
	ctx := context.Background()
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Current().Equal(Simulate(q, part.CurrentGraph())) {
		t.Fatal("initial standing relation diverges from oracle")
	}
	stream := GenUpdateStream(part.CurrentGraph(), 90, 0, 3)
	for bi, batch := range BatchOps(stream, 30) {
		st, err := dep.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if st.Reevaluated != 0 {
			t.Fatalf("batch %d: deletion-only batch re-evaluated", bi)
		}
		oracle := Simulate(q, part.CurrentGraph())
		if !w.Current().Equal(oracle) {
			t.Fatalf("batch %d: maintained relation diverges from oracle", bi)
		}
	}
}

func TestWatchInsertionFallback(t *testing.T) {
	_, _, part, dep, q := miniWorld(t, 250, 500, 5, 4)
	ctx := context.Background()
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stream := GenUpdateStream(part.CurrentGraph(), 20, 40, 5)
	for bi, batch := range BatchOps(stream, 20) {
		st, err := dep.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if st.Insertions > 0 && st.Reevaluated != 1 {
			t.Fatalf("batch %d: %d insertions but %d re-evaluations", bi, st.Insertions, st.Reevaluated)
		}
		oracle := Simulate(q, part.CurrentGraph())
		if !w.Current().Equal(oracle) {
			t.Fatalf("batch %d: relation diverges from oracle (ins=%d)", bi, st.Insertions)
		}
	}
}

// A standing engine is refined under the very mutations that drop its
// fragment's index, so its dense watcher rows can be stale. Its
// falsifications must still follow the live watcher annotations: a site
// that gave up its last edge to an in-node in this batch is told nothing
// more about it. Node a (label A, site 0) is an in-node watched by site 1
// through x → a, and site 1 deletes that edge; X(a, a) dies in the same
// batch, either by a deletion at site 0 itself or by a falsification
// from site 2, whose engine is then the only one refined under deletions.
func TestWatchRoutesByLiveWatchers(t *testing.T) {
	for _, c := range []struct {
		name     string
		assign   []int32 // a, b, c, x
		wantMsgs int64   // deletion deltas plus the falsifications that ship
	}{
		{"killed by a local deletion", []int32{0, 0, 0, 1}, 2},
		{"killed by a falsification", []int32{0, 2, 2, 1}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dict := NewDict()
			b := NewGraphBuilder(dict)
			a, bn, cn, x := b.AddNode("A"), b.AddNode("B"), b.AddNode("C"), b.AddNode("X")
			b.AddEdge(a, bn)
			b.AddEdge(bn, cn)
			b.AddEdge(x, a)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			part, err := PartitionFromAssign(g, c.assign)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := Deploy(part)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			q, err := ParsePattern(dict, "node a A\nnode b B\nnode c C\nedge a b\nedge b c")
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			w, err := dep.Watch(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if !w.Current().Ok() {
				t.Fatal("must match before the batch")
			}
			st, err := dep.Apply(ctx, []EdgeOp{DeleteOp(bn, cn), DeleteOp(x, a)})
			if err != nil {
				t.Fatal(err)
			}
			if !w.Current().Equal(Simulate(q, part.CurrentGraph())) {
				t.Fatal("maintained relation diverges from oracle")
			}
			if st.Maintenance.DataMsgs != c.wantMsgs {
				t.Fatalf("refinement shipped %d data messages, want %d: X(a,a)'s death went to a site that no longer watches a", st.Maintenance.DataMsgs, c.wantMsgs)
			}
		})
	}
}

func TestWatchCloseAndDeploymentClose(t *testing.T) {
	_, _, part, dep, q := miniWorld(t, 150, 400, 3, 6)
	ctx := context.Background()
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	// A closed handle is skipped by Apply but keeps serving its relation
	// and its last window's cost, frozen at Close, while later batches
	// refresh the rest of the shard.
	live, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	closed, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	pre, preStats := closed.Current(), closed.LastStats()
	stream := GenUpdateStream(part.CurrentGraph(), 30, 0, 7)
	if _, err := dep.Apply(ctx, stream); err != nil {
		t.Fatal(err)
	}
	if !closed.Current().Equal(pre) {
		t.Fatal("closed handle's relation changed")
	}
	if closed.LastStats() != preStats {
		t.Fatalf("closed handle's LastStats changed: %+v -> %+v", preStats, closed.LastStats())
	}
	if live.LastStats() == preStats {
		t.Fatal("the open handle's LastStats did not move with the batch")
	}
	if !live.Current().Equal(Simulate(q, part.CurrentGraph())) {
		t.Fatal("open handle diverges from oracle after a peer closed")
	}
	// Apply/Watch on a closed deployment fail.
	dep.Close()
	if _, err := dep.Apply(ctx, stream); err == nil {
		t.Fatal("Apply on closed deployment must fail")
	}
	if _, err := dep.Watch(ctx, q); err == nil {
		t.Fatal("Watch on closed deployment must fail")
	}
}

func TestApplyConcurrentWithQueries(t *testing.T) {
	_, _, part, dep, q := miniWorld(t, 400, 1200, 8, 8)
	ctx := context.Background()
	stream := GenUpdateStream(part.CurrentGraph(), 120, 60, 9)
	batches := BatchOps(stream, 30)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 3*len(batches); j++ {
				if _, err := dep.Query(ctx, q); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for bi, batch := range batches {
		if _, err := dep.Apply(ctx, batch); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// After the dust settles, everything agrees with the oracle.
	oracle := Simulate(q, part.CurrentGraph())
	res, err := dep.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(oracle) {
		t.Fatal("post-stream query diverges from oracle")
	}
}

// A cancelled Apply commits the graph but cannot refresh the standing
// queries: EVERY registered handle must come out stale (not just the
// one whose refresh observed the cancellation), and the next healthy
// Apply must re-evaluate them all back into sync.
func TestApplyCancelledRefreshMarksAllWatchersStale(t *testing.T) {
	dict, _, part, dep, q := miniWorld(t, 250, 700, 5, 17)
	ctx := context.Background()
	q2 := GenCyclicPatternOver(dict, 3, 5, 4, 18)
	w1, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := dep.Watch(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	stream := GenUpdateStream(part.CurrentGraph(), 60, 0, 19)
	batches := BatchOps(stream, 30)
	preEdges := part.CurrentGraph().NumEdges()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := dep.Apply(cctx, batches[0]); err == nil {
		t.Fatal("Apply with a cancelled ctx must report the failed refresh")
	}
	// The batch is committed regardless...
	if got := part.CurrentGraph().NumEdges(); got != preEdges-30 {
		t.Fatalf("graph has %d edges after cancelled Apply, want %d", got, preEdges-30)
	}
	// ...and BOTH handles know they are out of date.
	if !w1.Stale() || !w2.Stale() {
		t.Fatalf("stale flags after cancelled Apply: w1=%v w2=%v (both must be true)", w1.Stale(), w2.Stale())
	}
	// The next healthy Apply re-evaluates both back into sync.
	st, err := dep.Apply(ctx, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Reevaluated != 2 {
		t.Fatalf("Reevaluated = %d, want 2 (both stale handles)", st.Reevaluated)
	}
	if w1.Stale() || w2.Stale() {
		t.Fatal("handles still stale after a successful Apply")
	}
	if !w1.Current().Equal(Simulate(q, part.CurrentGraph())) {
		t.Fatal("w1 diverges from oracle after recovery")
	}
	if !w2.Current().Equal(Simulate(q2, part.CurrentGraph())) {
		t.Fatal("w2 diverges from oracle after recovery")
	}
}

// A Watch of a distinct pattern rebuilds the shared session against the
// current graph, so a handle a cancelled Apply left stale comes out of
// that rebuild fresh: staleness belongs to the session, not the handle.
func TestWatchRebuildClearsStale(t *testing.T) {
	dict, _, part, dep, q := miniWorld(t, 250, 700, 5, 21)
	ctx := context.Background()
	w1, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := dep.Apply(cctx, GenUpdateStream(part.CurrentGraph(), 30, 0, 22)); err == nil {
		t.Fatal("Apply with a cancelled ctx must report the failed refresh")
	}
	if !w1.Stale() {
		t.Fatal("w1 not stale after a cancelled Apply")
	}
	q2 := GenCyclicPatternOver(dict, 3, 5, 4, 23)
	if q2.CanonicalKey() == q.CanonicalKey() {
		t.Fatal("the second pattern must be distinct to force a rebuild")
	}
	w2, err := dep.Watch(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w1.Stale() || w2.Stale() {
		t.Fatalf("stale after the rebuild: w1=%v w2=%v", w1.Stale(), w2.Stale())
	}
	cur := part.CurrentGraph()
	if !w1.Current().Equal(Simulate(q, cur)) {
		t.Fatal("w1 diverges from oracle after the rebuild")
	}
	if !w2.Current().Equal(Simulate(q2, cur)) {
		t.Fatal("w2 diverges from oracle")
	}
}

// Test256SiteDeletionStream is the acceptance scenario: a 256-site
// synthetic world, a 1% edge-deletion stream against a watched query,
// results matching the fresh-recompute oracle at every batch.
func Test256SiteDeletionStream(t *testing.T) {
	if testing.Short() {
		t.Skip("256-site world is slow under -short")
	}
	dict := NewDict()
	g := GenSynthetic(dict, 6_000, 15_000, 11)
	part, err := PartitionWith(g, "random", 256, WithPartitionSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	q := GenCyclicPatternOver(dict, 4, 6, 4, 12)
	ctx := context.Background()
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	nDel := g.NumEdges() / 100 // the 1% stream
	stream := GenUpdateStream(part.CurrentGraph(), nDel, 0, 13)
	var incBytes int64
	for bi, batch := range BatchOps(stream, nDel/5+1) {
		st, err := dep.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		incBytes += st.Maintenance.DataBytes
		oracle := Simulate(q, part.CurrentGraph())
		if !w.Current().Equal(oracle) {
			t.Fatalf("batch %d: maintained relation diverges from recompute oracle", bi)
		}
		// The fresh one-shot query agrees too.
		res, err := dep.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Match.Equal(oracle) {
			t.Fatalf("batch %d: one-shot query diverges from oracle", bi)
		}
	}
	t.Logf("1%% deletion stream (%d edges) maintained with %d incremental DS bytes", nDel, incBytes)
}

func ExampleDeployment_Watch() {
	dict := NewDict()
	b := NewGraphBuilder(dict)
	a0 := b.AddNode("A")
	b0 := b.AddNode("B")
	b1 := b.AddNode("B")
	b.AddEdge(a0, b0)
	b.AddEdge(a0, b1)
	g, _ := b.Build()
	part, _ := PartitionFromAssign(g, []int32{0, 0, 1})
	dep, _ := Deploy(part)
	defer dep.Close()
	q, _ := ParsePattern(dict, "node a A\nnode b B\nedge a b")
	w, _ := dep.Watch(context.Background(), q)
	fmt.Println("matches:", w.Current().Ok())
	dep.Apply(context.Background(), []EdgeOp{DeleteOp(a0, b1)})
	fmt.Println("after one deletion:", w.Current().Ok())
	dep.Apply(context.Background(), []EdgeOp{DeleteOp(a0, b0)})
	fmt.Println("after both deletions:", w.Current().Ok())
	// Output:
	// matches: true
	// after one deletion: true
	// after both deletions: false
}
