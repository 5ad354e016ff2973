package dgs

// TestFailoverSmokeExternal is the driver half of
// scripts/failover_smoke.sh. The script starts three serving dgsd
// processes plus one spare, launches this test pointed at them via
// environment variables, and then SIGKILLs one serving daemon a few
// seconds in. The test streams update batches throughout — deleting a
// wave of edges, then re-inserting them — and requires every answer
// (live query and standing query alike) to match the centralized
// Simulate oracle. It exits successfully only once the deployment has
// recorded at least one failover AND a fully verified round completed
// after it, all inside one driver process: the smoke proves recovery
// without a restart.
//
// Without the environment variables the test skips, so `go test ./...`
// never depends on external daemons.

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

func TestFailoverSmokeExternal(t *testing.T) {
	addrsEnv := os.Getenv("DGS_FAILOVER_SMOKE_ADDRS")
	spare := os.Getenv("DGS_FAILOVER_SMOKE_SPARE")
	if addrsEnv == "" || spare == "" {
		t.Skip("external failover smoke: run via scripts/failover_smoke.sh")
	}
	addrs := strings.Split(addrsEnv, ",")

	dict := NewDict()
	g := GenSynthetic(dict, 400, 1200, 41)
	q := GenCyclicPatternOver(dict, 4, 6, 4, 42)
	part, err := PartitionWith(g, "blocks", 2*len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(part,
		WithRemoteSites(addrs...),
		WithSpareSites(spare),
		WithHeartbeat(100*time.Millisecond, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()

	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Current().Equal(Simulate(q, g)) {
		t.Fatal("initial standing query diverges from Simulate")
	}

	// Pre-draw waves of edges to delete and re-insert, so the stream
	// never runs dry no matter how long detection + recovery take.
	var waves [][]EdgeOp
	for v, wave := 0, []EdgeOp{}; v < g.NumNodes(); v++ {
		if succ := g.Succ(NodeID(v)); len(succ) > 0 {
			wave = append(wave, DeleteOp(NodeID(v), succ[0]))
		}
		if len(wave) == 10 {
			waves = append(waves, wave)
			wave = []EdgeOp{}
		}
	}

	// applyRetry streams one batch, riding out the failover window:
	// ErrSiteLost is the retryable sentinel (auto-recovery is running
	// underneath — spare + heartbeat are configured); anything else is
	// fatal. An interrupted batch left no driver-side effects, so the
	// retry re-submits it verbatim.
	applyRetry := func(ops []EdgeOp) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			_, err := dep.Apply(ctx, ops)
			if err == nil {
				return
			}
			if !errors.Is(err, ErrSiteLost) {
				t.Fatalf("apply during smoke: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("apply did not recover in time: %v", err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	queryRetry := func() *Result {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			res, err := dep.Query(ctx, q)
			if err == nil {
				return res
			}
			if !errors.Is(err, ErrSiteLost) {
				t.Fatalf("query during smoke: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("query did not recover in time: %v", err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// Stream delete / re-insert rounds until a failover has been
	// recorded and a clean round verified after it. The script's kill
	// lands a few seconds in, mid-stream.
	deadline := time.Now().Add(120 * time.Second)
	for round := 0; ; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("no failover observed after %d rounds — was a daemon killed?", round)
		}
		// Rounds pair up: round 2k deletes wave k, round 2k+1 restores
		// it, so the stream cycles indefinitely without ever inserting
		// an edge that is already present.
		wave := waves[(round/2)%len(waves)]
		del := round%2 == 0
		ops := make([]EdgeOp, len(wave))
		for i, op := range wave {
			if del {
				ops[i] = op
			} else {
				ops[i] = InsertOp(op.V, op.W)
			}
		}
		applyRetry(ops)
		oracle := Simulate(q, dep.Partition().CurrentGraph())
		if res := queryRetry(); !res.Match.Equal(oracle) {
			t.Fatalf("round %d: live query diverges from oracle", round)
		}
		if dep.Failovers() >= 1 {
			// Recovery happened and the round above verified after it;
			// give the re-registered standing query a moment to land,
			// then require it to agree too.
			wd := time.Now().Add(15 * time.Second)
			for !w.Current().Equal(oracle) {
				if time.Now().After(wd) {
					t.Fatal("standing query did not re-register after failover")
				}
				time.Sleep(50 * time.Millisecond)
			}
			t.Logf("failover smoke: %d failover(s), verified at round %d", dep.Failovers(), round)
			return
		}
	}
}
