package dgs

// The session runner's contract (cluster.Evaluate), asserted once for
// every algorithm's Eval: the PT clock is set, the session is gone when
// Eval returns — on success, on a context cancelled mid-run and on an
// open error — and a trace whose totals reproduce Stats comes back iff a
// trace ID was given.

import (
	"context"
	"errors"
	"testing"
	"time"

	"dgs/internal/baseline"
	"dgs/internal/cluster"
	"dgs/internal/dagsim"
	"dgs/internal/dgpm"
	"dgs/internal/obs"
	"dgs/internal/simulation"
	"dgs/internal/treesim"
	"dgs/internal/wire"
)

func TestRunnerContract(t *testing.T) {
	dict := NewDict()
	g := GenTree(dict, 300, 41) // a tree is also a DAG: every precondition holds
	q := GenTreePattern(dict, 4, 24)
	part, err := PartitionTree(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	fr, p := part.fr, q.p
	oracle := Simulate(q, g)
	if !oracle.Ok() {
		t.Fatal("fixture must match: the runs should ship results")
	}

	type evalFunc func(ctx context.Context, c *cluster.Cluster, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error)
	algos := map[Algorithm]evalFunc{
		AlgoDGPM: func(ctx context.Context, c *cluster.Cluster, id uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
			return dgpm.Eval(ctx, c, p, fr, dgpm.DefaultConfig(), nil, id)
		},
		AlgoDGPMNoOpt: func(ctx context.Context, c *cluster.Cluster, id uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
			return dgpm.Eval(ctx, c, p, fr, dgpm.NOptConfig(), nil, id)
		},
		AlgoDGPMd: func(ctx context.Context, c *cluster.Cluster, id uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
			return dagsim.Eval(ctx, c, p, fr, false, id)
		},
		AlgoDGPMt: func(ctx context.Context, c *cluster.Cluster, id uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
			return treesim.Eval(ctx, c, p, fr, id)
		},
		AlgoMatch: func(ctx context.Context, c *cluster.Cluster, id uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
			return baseline.EvalMatch(ctx, c, p, id)
		},
		AlgoDisHHK: func(ctx context.Context, c *cluster.Cluster, id uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
			return baseline.EvalDisHHK(ctx, c, p, id)
		},
		AlgoDMes: func(ctx context.Context, c *cluster.Cluster, id uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
			return baseline.EvalDMes(ctx, c, p, fr, id)
		},
	}
	drained := func(t *testing.T, c *cluster.Cluster) {
		t.Helper()
		if n := c.ActiveSessions(cluster.SessionQuery); n != 0 {
			t.Fatalf("%d query sessions still registered after return", n)
		}
	}

	for _, a := range confAlgos {
		eval := algos[a]
		t.Run(a.String(), func(t *testing.T) {
			c := cluster.NewLocal(fr, cluster.Network{})
			defer c.Shutdown()
			for _, traceID := range []uint64{0, 7} {
				m, st, qt, err := eval(context.Background(), c, traceID)
				if err != nil {
					t.Fatal(err)
				}
				drained(t, c)
				if !oracle.m.Equal(m) {
					t.Fatalf("trace %d: result diverges from Simulate", traceID)
				}
				if st.Wall <= 0 {
					t.Fatalf("trace %d: Stats.Wall = %v", traceID, st.Wall)
				}
				if traceID == 0 {
					if qt != nil {
						t.Fatalf("untraced run returned a trace: %+v", qt)
					}
					continue
				}
				if qt == nil || qt.TraceID != traceID || !qt.Complete {
					t.Fatalf("traced run returned trace %+v", qt)
				}
				_, msgsIn, msgsOut, bytesIn, bytesOut, rounds := qt.Totals()
				wantBytes := st.DataBytes + st.ControlBytes + st.ResultBytes
				if msgsIn != st.TotalMsgs() || msgsOut != st.TotalMsgs() ||
					bytesIn != wantBytes || bytesOut != wantBytes || rounds != st.Rounds {
					t.Fatalf("trace totals msgs=%d/%d bytes=%d/%d rounds=%d, stats %+v",
						msgsIn, msgsOut, bytesIn, bytesOut, rounds, st)
				}
			}

			// Cancelled mid-run: no message is deliverable before the
			// link latency has passed, and the context expires first.
			slow := cluster.NewLocal(fr, cluster.Network{Latency: 50 * time.Millisecond})
			defer slow.Shutdown()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			if _, _, _, err := eval(ctx, slow, 7); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cancelled run: err = %v, want DeadlineExceeded", err)
			}
			drained(t, slow)
		})
	}

	// An open error is the runner's alone: the algorithm name resolves at
	// no site, and run never starts.
	t.Run("open-error", func(t *testing.T) {
		c := cluster.NewLocal(fr, cluster.Network{})
		defer c.Shutdown()
		//lint:allow regconsistent — probing the unknown-name error path
		spec := cluster.SessionSpec{Algo: "no-such-algorithm", TraceID: 7}
		_, qt, err := c.Evaluate(context.Background(), spec, &cluster.Collector{}, func(s *cluster.Session) error {
			t.Error("run started on a session that failed to open")
			return s.Phase(context.Background(), &wire.Control{})
		})
		if err == nil || qt != nil {
			t.Fatalf("unknown algorithm: err = %v, trace = %+v", err, qt)
		}
		drained(t, c)
	})
}
