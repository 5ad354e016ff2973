package dgs

// Fault-tolerance tests over real loopback TCP: a daemon crash
// mid-stream must surface as the retryable ErrSiteLost (never a hang,
// never a misclassified ErrClosed), and recovery — automatic onto a
// spare daemon, or manual redeploy onto a survivor — must restore
// oracle-correct answers and re-register standing queries, all within
// one driver process (no restart).

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"dgs/internal/transport/tcpnet"
)

// killableDaemon is a dgsd-equivalent server whose accepted connections
// the test can sever, simulating a daemon crash.
type killableDaemon struct {
	addr string
	cap  *capturingListener
}

func startKillableDaemons(t *testing.T, k int) []*killableDaemon {
	t.Helper()
	ds := make([]*killableDaemon, k)
	for i := range ds {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cap := &capturingListener{Listener: lis}
		srv := &tcpnet.Server{}
		go srv.Serve(cap)
		t.Cleanup(func() { lis.Close() })
		ds[i] = &killableDaemon{addr: lis.Addr().String(), cap: cap}
	}
	return ds
}

// failoverWorkload builds a graph, pattern, and partition sized for
// quick failover rounds.
func failoverWorkload(t *testing.T, frags int, seed int64) (*Dict, *Graph, *Pattern, *Partition) {
	t.Helper()
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, seed)
	q := GenCyclicPatternOver(dict, 4, 6, 4, seed+1)
	part, err := PartitionWith(g, "blocks", frags)
	if err != nil {
		t.Fatal(err)
	}
	return dict, g, q, part
}

// waitRecovered polls until a query succeeds (recovery finished) or the
// deadline passes; any non-site-lost error fails immediately.
func waitRecovered(t *testing.T, dep *Deployment, q *Pattern) *Result {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := dep.Query(context.Background(), q)
		if err == nil {
			return res
		}
		if !errors.Is(err, ErrSiteLost) {
			t.Fatalf("while waiting for recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("deployment did not recover in time; last error: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFailoverToSpare: with a spare daemon listed, losing a serving
// daemon triggers automatic recovery — the spare absorbs the lost
// fragments, queries answer oracle-correct again, the standing query
// re-registers, and Failovers records the event. No process restarts.
func TestFailoverToSpare(t *testing.T) {
	_, g, q, part := failoverWorkload(t, 6, 23)
	daemons := startKillableDaemons(t, 3)
	spare := startSiteServers(t, 1)
	addrs := []string{daemons[0].addr, daemons[1].addr, daemons[2].addr}
	dep, err := Deploy(part,
		WithRemoteSites(addrs...),
		WithSpareSites(spare...),
		WithHeartbeat(50*time.Millisecond, 2))
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
	oracle := Simulate(q, g)
	if !w.Current().Equal(oracle) {
		t.Fatal("standing query's initial relation diverges from Simulate")
	}

	daemons[1].cap.severAll() // crash mid-deployment

	res := waitRecovered(t, dep, q)
	if !res.Match.Equal(oracle) {
		t.Fatal("post-failover query diverges from Simulate")
	}
	if n := dep.Failovers(); n < 1 {
		t.Fatalf("Failovers() = %d after a recovery", n)
	}
	// The standing query re-registered during recovery; give the
	// re-evaluation (which runs after queries unblock) time to land.
	deadline := time.Now().Add(10 * time.Second)
	for !w.Current().Equal(oracle) {
		if time.Now().After(deadline) {
			t.Fatal("standing query did not re-register after failover")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Live updates keep working against the recovered substrate, and the
	// re-registered watcher tracks them.
	var ops []EdgeOp
	for v := 0; v < g.NumNodes() && len(ops) < 20; v++ {
		if succ := g.Succ(NodeID(v)); len(succ) > 0 {
			ops = append(ops, DeleteOp(NodeID(v), succ[0]))
		}
	}
	if _, err := dep.Apply(ctx, ops); err != nil {
		t.Fatalf("apply after failover: %v", err)
	}
	after := dep.Partition().CurrentGraph()
	if oracle := Simulate(q, after); !w.Current().Equal(oracle) {
		t.Fatal("watcher diverges from oracle after post-failover updates")
	}
	res2, err := dep.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if oracle := Simulate(q, after); !res2.Match.Equal(oracle) {
		t.Fatal("query diverges from oracle after post-failover updates")
	}
}

// TestFailoverRedeployToSurvivor: with no spare, a manual Recover
// doubles the lost fragments up on a surviving daemon over the
// REDEPLOY frame. Also the regression test for the error taxonomy:
// Query and Apply after a crash must wrap ErrSiteLost (retryable), not
// ErrClosed and not a generic transport error.
func TestFailoverRedeployToSurvivor(t *testing.T) {
	_, g, q, part := failoverWorkload(t, 4, 29)
	daemons := startKillableDaemons(t, 2)
	dep, err := Deploy(part, WithRemoteSites(daemons[0].addr, daemons[1].addr))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	oracle := Simulate(q, g)
	if res, err := dep.Query(ctx, q); err != nil || !res.Match.Equal(oracle) {
		t.Fatalf("pre-crash query: err=%v", err)
	}
	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	daemons[0].cap.severAll()

	// Without spares or heartbeat there is no automatic recovery: the
	// deployment suspends and every operation fails fast with the
	// retryable sentinel.
	_, qerr := dep.Query(ctx, q)
	if !errors.Is(qerr, ErrSiteLost) {
		t.Fatalf("query after crash = %v, want ErrSiteLost", qerr)
	}
	if errors.Is(qerr, ErrClosed) {
		t.Fatalf("query after crash misreports ErrClosed: %v", qerr)
	}
	_, aerr := dep.Apply(ctx, []EdgeOp{DeleteOp(0, g.Succ(0)[0])})
	if !errors.Is(aerr, ErrSiteLost) || errors.Is(aerr, ErrClosed) {
		t.Fatalf("apply after crash = %v, want ErrSiteLost (not ErrClosed)", aerr)
	}

	if err := dep.Recover(ctx); err != nil {
		t.Fatalf("recover onto survivor: %v", err)
	}
	if n := dep.Failovers(); n != 1 {
		t.Fatalf("Failovers() = %d, want 1", n)
	}
	res, err := dep.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(oracle) {
		t.Fatal("post-redeploy query diverges from Simulate")
	}
	if !w.Current().Equal(oracle) {
		t.Fatal("standing query not re-registered by Recover")
	}

	// The recovered substrate takes updates; the doubled-up survivor
	// owns the moved fragments now.
	var ops []EdgeOp
	for v := 0; v < g.NumNodes() && len(ops) < 15; v++ {
		if succ := g.Succ(NodeID(v)); len(succ) > 0 {
			ops = append(ops, DeleteOp(NodeID(v), succ[0]))
		}
	}
	if _, err := dep.Apply(ctx, ops); err != nil {
		t.Fatalf("apply after redeploy: %v", err)
	}
	after := dep.Partition().CurrentGraph()
	if oracle := Simulate(q, after); !w.Current().Equal(oracle) {
		t.Fatal("watcher diverges from oracle after post-redeploy updates")
	}
}

// TestRecoverNoCapacityPoisons: no spare and no survivor (the only
// daemon died) — Recover reports the retryable condition, and the
// deployment stays suspended rather than dead until capacity appears.
func TestRecoverNoCapacity(t *testing.T) {
	_, _, q, part := failoverWorkload(t, 2, 31)
	daemons := startKillableDaemons(t, 1)
	dep, err := Deploy(part, WithRemoteSites(daemons[0].addr))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	daemons[0].cap.severAll()
	if _, err := dep.Query(ctx, q); !errors.Is(err, ErrSiteLost) {
		t.Fatalf("query after crash = %v, want ErrSiteLost", err)
	}
	if err := dep.Recover(ctx); !errors.Is(err, ErrSiteLost) {
		t.Fatalf("Recover with no capacity = %v, want ErrSiteLost", err)
	}
	if _, err := dep.Query(ctx, q); !errors.Is(err, ErrSiteLost) {
		t.Fatalf("query after failed recovery = %v, want ErrSiteLost still", err)
	}
}
