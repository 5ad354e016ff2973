package serve

// Cache invalidation under a live update stream — the property the
// whole cache design rests on: a query racing Apply must never return a
// result tagged with a newer version than the graph state it actually
// observed. The harness reuses the PR-2 proptest idea: the applier
// snapshots the materialized graph after every batch, and every served
// response (cached, coalesced, or fresh) is checked pair-for-pair
// against the centralized Simulate oracle on the snapshot its version
// tag names. A result computed against graph state v but tagged v+1
// (or vice versa) diverges from the oracle and fails the test.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dgs"
)

func TestCacheNeverServesWrongVersion(t *testing.T) {
	ctx := context.Background()
	dict := dgs.NewDict()
	g := dgs.GenSynthetic(dict, 200, 700, 99)
	part, err := dgs.PartitionWith(g, "random", 3, dgs.WithPartitionSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := dgs.Deploy(part)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	srv := New(dep, dict, Options{MaxInFlight: 4})

	// Two query patterns over the shared dictionary; parsed text goes
	// through the full serving path.
	patterns := []string{
		dgs.GenCyclicPatternOver(dict, 3, 5, 4, 100).String(),
		dgs.GenCyclicPatternOver(dict, 4, 6, 4, 101).String(),
	}

	// snapshots[v] is the graph as of version v. Version 0 is the
	// deployed graph; the applier records each later version right after
	// its Apply returns (it is the only writer, so the graph is stable
	// between its batches).
	var snapMu sync.Mutex
	snapshots := map[uint64]*dgs.Graph{0: part.CurrentGraph()}

	stream := dgs.GenUpdateStream(part.CurrentGraph(), 60, 20, 102)
	batches := dgs.BatchOps(stream, 4)

	type sample struct {
		pattern string
		version uint64
		pairs   int
		matches map[string][]dgs.NodeID
	}
	var (
		samplesMu sync.Mutex
		samples   []sample
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rq := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := patterns[rq.Intn(len(patterns))]
				resp, err := srv.Query(ctx, QueryRequest{Pattern: p, IncludeMatches: true})
				if err != nil {
					t.Error(err)
					return
				}
				samplesMu.Lock()
				samples = append(samples, sample{pattern: p, version: resp.Version, pairs: resp.Pairs, matches: resp.Matches})
				samplesMu.Unlock()
			}
		}(int64(200 + i))
	}

	// The applier: one batch at a time, snapshotting after each.
	for _, batch := range batches {
		if _, err := srv.Apply(ctx, toApplyOps(batch)); err != nil {
			// Racing inserts/deletes can invalidate against the mutated
			// graph; regenerate the op against the current state instead.
			continue
		}
		v := dep.Version()
		snapMu.Lock()
		snapshots[v] = part.CurrentGraph()
		snapMu.Unlock()
	}
	close(stop)
	wg.Wait()

	if len(samples) == 0 {
		t.Fatal("no query completed during the update stream")
	}
	// Verify every sample against the oracle at its tagged version.
	oracle := map[string]*dgs.Match{} // pattern \x00 version → Simulate
	for _, s := range samples {
		snapMu.Lock()
		snap, ok := snapshots[s.version]
		snapMu.Unlock()
		if !ok {
			t.Fatalf("response tagged version %d, but no batch ever produced it", s.version)
		}
		key := fmt.Sprintf("%s\x00%d", s.pattern, s.version)
		want, ok := oracle[key]
		if !ok {
			q, err := dgs.ParsePattern(dict, s.pattern)
			if err != nil {
				t.Fatal(err)
			}
			want = dgs.Simulate(q, snap)
			oracle[key] = want
		}
		if s.pairs != want.NumPairs() {
			t.Fatalf("version %d: served %d pairs, oracle has %d — result computed against a different graph state than its tag",
				s.version, s.pairs, want.NumPairs())
		}
		q, _ := dgs.ParsePattern(dict, s.pattern)
		for u := 0; u < q.NumNodes(); u++ {
			name := q.NodeName(dgs.QNode(u))
			ref := want.MatchesOf(dgs.QNode(u))
			got := s.matches[name]
			if len(got) != len(ref) {
				t.Fatalf("version %d node %s: served %d matches, oracle %d", s.version, name, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("version %d node %s: match %d diverges", s.version, name, i)
				}
			}
		}
	}
	t.Logf("verified %d served responses across %d graph versions (hit rate %.2f)",
		len(samples), len(snapshots), srv.Counters().HitRate())
}

func toApplyOps(batch []dgs.EdgeOp) ApplyRequest {
	ops := make([]ApplyOp, len(batch))
	for i, op := range batch {
		ops[i] = ApplyOp{Del: op.Del, V: op.V, W: op.W}
	}
	return ApplyRequest{Ops: ops}
}
