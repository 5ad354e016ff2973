package tcpnet_test

// Transport conformance matrix: the cluster/session behaviors the
// in-process backend has always guaranteed, run against every backend —
// in-process and one- and two-daemon loopback TCP. The test algorithms
// are registered like real ones, so the TCP rows exercise the same
// spec-session machinery dgsd serves in production: exact payload
// accounting, quiescence across process boundaries, rounds/busy
// piggybacking, context cancellation, and mid-session Close.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/transport/tcpnet"
	"dgs/internal/wire"
)

const (
	algoEcho  = "test-echo"  // forwards a falsify along the ring, V counts hops
	algoNop   = "test-nop"   // ignores everything
	algoReply = "test-reply" // replies one Matches to the coordinator
	algoSleep = "test-sleep" // sleeps Config[0] milliseconds per message
	algoRound = "test-round" // records 2 rounds per message
)

var registerOnce sync.Once

func registerTestAlgos() {
	registerOnce.Do(func() {
		factory := func(h func(ctx *cluster.Ctx, from int, p wire.Payload)) cluster.SiteFactory {
			return func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
				return cluster.HandlerFunc(h), nil
			}
		}
		cluster.RegisterAlgorithm(algoEcho, factory(func(ctx *cluster.Ctx, from int, p wire.Payload) {
			f, ok := p.(*wire.Falsify)
			if !ok || len(f.Pairs) == 0 || f.Pairs[0].V == 0 {
				return
			}
			next := (ctx.Self() + 1) % ctx.NumSites()
			ctx.Send(next, &wire.Falsify{Pairs: []wire.VarRef{{U: f.Pairs[0].U, V: f.Pairs[0].V - 1}}})
		}))
		cluster.RegisterAlgorithm(algoNop, factory(func(*cluster.Ctx, int, wire.Payload) {}))
		cluster.RegisterAlgorithm(algoReply, factory(func(ctx *cluster.Ctx, from int, p wire.Payload) {
			ctx.Send(cluster.Coordinator, &wire.Matches{Frag: uint16(ctx.Self())})
		}))
		cluster.RegisterAlgorithm(algoSleep, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
			d := time.Duration(spec.Config[0]) * time.Millisecond
			return cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) { time.Sleep(d) }), nil
		})
		cluster.RegisterAlgorithm(algoRound, factory(func(ctx *cluster.Ctx, from int, p wire.Payload) {
			ctx.AddRounds(2)
		}))
	})
}

// trivialFragmentation builds an n-fragment world over an edgeless
// n-node graph: enough for protocol sessions, nothing to evaluate.
func trivialFragmentation(t *testing.T, n int) *partition.Fragmentation {
	t.Helper()
	b := graph.NewBuilder()
	assign := make([]int32, n)
	for i := 0; i < n; i++ {
		b.AddNode("x")
		assign[i] = int32(i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := partition.Build(g, assign, n)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

type backend struct {
	name string
	mk   func(t *testing.T, n int) *cluster.Cluster
}

// dialNet spins up `daemons` loopback servers (each with srv applied)
// and dials them, returning the raw transport for tests that inspect
// frame counters.
func dialNet(t *testing.T, daemons, n int, srv tcpnet.Server, opts tcpnet.Options) *tcpnet.Net {
	t.Helper()
	addrs := make([]string, daemons)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := srv
		go s.Serve(lis)
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr().String()
	}
	tr, err := tcpnet.Dial(context.Background(), addrs, trivialFragmentation(t, n), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func tcpBackendOpts(name string, daemons int, srv tcpnet.Server, opts tcpnet.Options) backend {
	return backend{
		name: name,
		mk: func(t *testing.T, n int) *cluster.Cluster {
			t.Helper()
			return cluster.NewWithTransport(dialNet(t, daemons, n, srv, opts))
		},
	}
}

func tcpBackend(daemons int) backend {
	return tcpBackendOpts(fmt.Sprintf("tcp-%dd", daemons), daemons, tcpnet.Server{}, tcpnet.Options{})
}

// backends lists the transports every matrix test runs over. The last
// two keep the subtest names the test ledger has tracked since they
// pinned one side to wire protocol 1; with one protocol version left
// they vary what still can vary on a connection instead: the "v1driver"
// arm runs with heartbeats on, so PING/PONG frames interleave with
// every session (the miss threshold is far out of reach — the arm
// exercises the interleaving, not loss detection), and the "v1daemon"
// arm runs with the driver-side metric instruments attached.
func backends() []backend {
	return []backend{
		{"inproc", func(t *testing.T, n int) *cluster.Cluster {
			return cluster.New(n)
		}},
		tcpBackend(1),
		tcpBackend(2),
		tcpBackendOpts("tcp-2d-v1driver", 2, tcpnet.Server{}, tcpnet.Options{HeartbeatInterval: 10 * time.Millisecond, HeartbeatMisses: 1000}),
		tcpBackendOpts("tcp-2d-v1daemon", 2, tcpnet.Server{}, tcpnet.Options{Metrics: obs.NewRegistry()}),
	}
}

func forEachBackend(t *testing.T, n int, body func(t *testing.T, c *cluster.Cluster)) {
	registerTestAlgos()
	for _, be := range backends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			c := be.mk(t, n)
			defer c.Shutdown()
			body(t, c)
		})
	}
}

var bg = context.Background()

func open(t *testing.T, c *cluster.Cluster, kind cluster.SessionKind, spec cluster.SessionSpec, coord cluster.Handler) *cluster.Session {
	t.Helper()
	if coord == nil {
		coord = cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) {})
	}
	s, err := c.OpenSession(kind, spec, coord)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Ring traffic quiesces with exact, backend-independent payload stats.
func TestMatrixRingQuiesces(t *testing.T) {
	forEachBackend(t, 4, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoEcho}, nil)
		defer s.Close()
		s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 10}}})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.DataMsgs != 11 || st.DataBytes != 11*11 {
			t.Fatalf("exact accounting must not depend on the backend: %+v", st)
		}
	})
}

// Coordinator round trip: broadcast in, one reply per site, collected at
// the driver-side coordinator.
func TestMatrixCoordinatorRoundTrip(t *testing.T) {
	forEachBackend(t, 5, func(t *testing.T, c *cluster.Cluster) {
		var mu sync.Mutex
		seen := map[int]bool{}
		coord := cluster.HandlerFunc(func(ctx *cluster.Ctx, from int, p wire.Payload) {
			if m, ok := p.(*wire.Matches); ok {
				mu.Lock()
				seen[int(m.Frag)] = true
				mu.Unlock()
			}
		})
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoReply}, coord)
		defer s.Close()
		s.Broadcast(&wire.Control{Op: 1})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != 5 {
			t.Fatalf("coordinator saw %d sites, want 5", len(seen))
		}
	})
}

// Multi-phase protocols reuse one session across quiesce windows.
func TestMatrixMultiPhase(t *testing.T) {
	forEachBackend(t, 3, func(t *testing.T, c *cluster.Cluster) {
		var mu sync.Mutex
		got := 0
		coord := cluster.HandlerFunc(func(ctx *cluster.Ctx, from int, p wire.Payload) {
			mu.Lock()
			got++
			mu.Unlock()
		})
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoReply}, coord)
		defer s.Close()
		for phase := 1; phase <= 3; phase++ {
			s.Broadcast(&wire.Control{Op: uint8(phase)})
			if err := s.WaitQuiesce(bg); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			want := 3 * phase
			if got != want {
				mu.Unlock()
				t.Fatalf("after phase %d: %d replies, want %d", phase, got, want)
			}
			mu.Unlock()
		}
	})
}

// Rounds recorded at (possibly remote) sites reach the session stats.
func TestMatrixRoundsPropagate(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoRound}, nil)
		defer s.Close()
		s.Broadcast(&wire.Control{})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Rounds; got != 4 {
			t.Fatalf("Rounds = %d, want 4 (2 sites × 2)", got)
		}
	})
}

// Site busy time survives the process boundary (ACKN piggyback).
func TestMatrixBusyPropagates(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoSleep, Config: []byte{8}}, nil)
		defer s.Close()
		s.Inject(0, &wire.Control{})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		if b := s.Stats().MaxSiteBusy; b < 6*time.Millisecond {
			t.Fatalf("MaxSiteBusy = %v, want ≈8ms", b)
		}
	})
}

// Concurrent sessions keep isolated traffic and stats on every backend.
func TestMatrixConcurrentSessionsIsolated(t *testing.T) {
	forEachBackend(t, 4, func(t *testing.T, c *cluster.Cluster) {
		var wg sync.WaitGroup
		for _, hops := range []uint32{5, 17, 9, 13} {
			wg.Add(1)
			go func(h uint32) {
				defer wg.Done()
				s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoEcho}, nil)
				defer s.Close()
				s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: h}}})
				if err := s.WaitQuiesce(bg); err != nil {
					t.Error(err)
					return
				}
				if got := s.Stats().DataMsgs; got != int64(h)+1 {
					t.Errorf("hops=%d: DataMsgs = %d, want %d", h, got, h+1)
				}
			}(hops)
		}
		wg.Wait()
	})
}

// WaitQuiesce honors context cancellation promptly while remote (or
// local) handlers are still busy.
func TestMatrixWaitQuiesceHonorsContext(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoSleep, Config: []byte{250}}, nil)
		defer s.Close()
		s.Inject(0, &wire.Control{})
		ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := s.WaitQuiesce(ctx); err != context.DeadlineExceeded {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("WaitQuiesce returned after %v, not promptly", el)
		}
	})
}

// Mid-session Close discards the session's remaining traffic everywhere
// and leaves the substrate healthy for the next session.
func TestMatrixMidSessionClose(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoSleep, Config: []byte{20}}, nil)
		for i := 0; i < 10; i++ {
			s.Inject(i%2, &wire.Control{})
		}
		time.Sleep(5 * time.Millisecond) // let the first Recvs start
		s.Close()
		if err := s.WaitQuiesce(bg); !errors.Is(err, cluster.ErrClosed) {
			t.Fatalf("WaitQuiesce on closed session = %v, want ErrClosed", err)
		}
		// A fresh session on the same substrate still round-trips.
		s2 := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoEcho}, nil)
		defer s2.Close()
		s2.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 3}}})
		if err := s2.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		if got := s2.Stats().DataMsgs; got != 4 {
			t.Fatalf("post-close session DataMsgs = %d, want 4", got)
		}
	})
}

// Session kinds multiplex on every backend.
func TestMatrixSessionKinds(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		q := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoNop}, nil)
		defer q.Close()
		m := open(t, c, cluster.SessionMaintenance, cluster.SessionSpec{Algo: algoNop}, nil)
		defer m.Close()
		if got := c.ActiveSessions(cluster.SessionMaintenance); got != 1 {
			t.Fatalf("maintenance sessions = %d", got)
		}
		q.Broadcast(&wire.Control{Op: 1})
		m.Broadcast(&wire.Control{Op: 2})
		if err := q.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
	})
}

// An unknown algorithm fails the session: synchronously in-process,
// asynchronously (via an ERR frame failing WaitQuiesce) over TCP.
func TestMatrixUnknownAlgorithm(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		//lint:allow regconsistent — probes the unknown-algorithm error path
		s, err := c.OpenSession(cluster.SessionQuery, cluster.SessionSpec{Algo: "no-such-algo"},
			cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) {}))
		if err != nil {
			if !strings.Contains(err.Error(), "unknown algorithm") {
				t.Fatalf("unexpected error: %v", err)
			}
			return // in-process: synchronous resolution failure
		}
		defer s.Close()
		// TCP: the OPEN fails at the daemon; the injected message is never
		// acked, so WaitQuiesce must report the ERR instead of hanging.
		s.Inject(0, &wire.Control{})
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		defer cancel()
		err = s.WaitQuiesce(ctx)
		if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Fatalf("WaitQuiesce = %v, want remote unknown-algorithm error", err)
		}
	})
}

// On a 2-daemon loopback run the driver's Broadcast loop enqueues each
// phase's 64 messages far faster than the writer can flush them, so the
// bulk of every burst must coalesce: strictly fewer frames leave the
// driver than messages were handed to it (OPEN and CLOSE frames count
// against the transport). The daemon side interleaves each site's reply
// with its ACKN, so consecutive same-key runs (the only thing the
// FIFO-preserving coalescer may merge) form only when the writer falls
// behind; there only no-increase over one frame per reply and per ACKN is
// guaranteed.
func TestCoalescingReducesFrames(t *testing.T) {
	registerTestAlgos()
	const sites, phases = 64, 40
	tr := dialNet(t, 2, sites, tcpnet.Server{}, tcpnet.Options{})
	c := cluster.NewWithTransport(tr)
	defer c.Shutdown()
	s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoReply}, nil)
	defer s.Close()
	for p := 0; p < phases; p++ {
		s.Broadcast(&wire.Control{Op: 1})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
	}
	const msgsOut = sites * phases
	sent, received := tr.Frames()
	t.Logf("msgs out=%d frames out=%d frames in=%d", msgsOut, sent, received)
	if sent >= msgsOut {
		t.Errorf("driver→daemon frames did not drop below messages: frames=%d msgs=%d", sent, msgsOut)
	}
	if received > 2*msgsOut {
		t.Errorf("daemon→driver frames exceed one per reply and per ACKN: frames=%d, bound %d", received, 2*msgsOut)
	}
}

// Shutdown mid-traffic releases sessions with ErrClosed on every backend.
func TestMatrixShutdownReleasesSessions(t *testing.T) {
	registerTestAlgos()
	for _, be := range backends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			c := be.mk(t, 2)
			s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoSleep, Config: []byte{30}}, nil)
			for i := 0; i < 6; i++ {
				s.Inject(i%2, &wire.Control{})
			}
			done := make(chan error, 1)
			go func() { done <- s.WaitQuiesce(bg) }()
			time.Sleep(3 * time.Millisecond)
			c.Shutdown()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, cluster.ErrClosed) {
					t.Fatalf("WaitQuiesce after Shutdown = %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("WaitQuiesce hung across Shutdown")
			}
		})
	}
}
