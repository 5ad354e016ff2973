package tcpnet_test

// Failure-path hardening for the TCP transport: disconnects mid-DEPLOY,
// half-open peers (accepted but silent — only the heartbeat can tell),
// and duplicate/forged ACK delivery against the termination
// certificate. Companion to the conformance matrix in matrix_test.go.

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/transport/tcpnet"
	"dgs/internal/wire"
)

// chokeListener hands out connections that die after reading budget
// bytes — the daemon side sees a mid-stream disconnect at a byte offset
// the test chooses.
type chokeListener struct {
	net.Listener
	budget int64
}

type chokeConn struct {
	net.Conn
	left *int64
}

func (c chokeConn) Read(p []byte) (int, error) {
	if atomic.LoadInt64(c.left) <= 0 {
		c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	n, err := c.Conn.Read(p)
	if atomic.AddInt64(c.left, -int64(n)) <= 0 {
		c.Conn.Close()
	}
	return n, err
}

func (l *chokeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	left := l.budget
	return chokeConn{Conn: c, left: &left}, nil
}

// A daemon that dies mid-DEPLOY (after the handshake, inside the
// fragment shipment) must fail Dial with an error — never hang the
// driver or leak the deployment half-built.
func TestMidDeployDisconnect(t *testing.T) {
	registerTestAlgos()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// The HELLO frame is ~20 bytes; a 64-site DEPLOY is far bigger. A
	// 60-byte budget severs the daemon's read inside the DEPLOY body.
	srv := &tcpnet.Server{}
	go srv.Serve(&chokeListener{Listener: lis, budget: 60})

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := tcpnet.Dial(ctx, []string{lis.Addr().String()}, trivialFragmentation(t, 64), tcpnet.Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial against a daemon that died mid-DEPLOY succeeded")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Dial hung on a mid-DEPLOY disconnect")
	}
}

// mutableProxy forwards bytes between the driver and a real daemon
// until Mute is called; after that both directions go silent while the
// sockets stay open — a half-open peer. Crucially the proxy's listener
// keeps accepting, so the driver's dial-back probe SUCCEEDS: detection
// must come from heartbeat silence, not from connection refusal.
type mutableProxy struct {
	lis   net.Listener
	muted atomic.Bool
	wg    sync.WaitGroup
}

func newMutableProxy(t *testing.T, backend string) *mutableProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &mutableProxy{lis: lis}
	go func() {
		for {
			in, err := lis.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", backend)
			if err != nil {
				in.Close()
				continue
			}
			pipe := func(dst, src net.Conn) {
				defer p.wg.Done()
				buf := make([]byte, 1<<15)
				for {
					n, err := src.Read(buf)
					if n > 0 && !p.muted.Load() {
						if _, werr := dst.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}
			p.wg.Add(2)
			go pipe(out, in)
			go pipe(in, out)
		}
	}()
	t.Cleanup(func() { lis.Close() })
	return p
}

func (p *mutableProxy) addr() string { return p.lis.Addr().String() }

// A half-open peer — TCP accepted, deployment resident, then silence —
// must be detected by the heartbeat within the missed-beat budget and
// surface as cluster.ErrSiteLost, not hang forever.
func TestHalfOpenPeerDetectedByHeartbeat(t *testing.T) {
	registerTestAlgos()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &tcpnet.Server{}
	go srv.Serve(lis)
	t.Cleanup(func() { lis.Close() })
	proxy := newMutableProxy(t, lis.Addr().String())

	tr, err := tcpnet.Dial(context.Background(), []string{proxy.addr()},
		trivialFragmentation(t, 2), tcpnet.Options{
			HeartbeatInterval: 40 * time.Millisecond,
			HeartbeatMisses:   2,
		})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewWithTransport(tr)
	defer c.Shutdown()

	// Healthy round trip first.
	s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoEcho}, nil)
	s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 4}}})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	s.Close()

	proxy.muted.Store(true) // the daemon goes silent but stays connected

	s2 := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoEcho}, nil)
	defer s2.Close()
	s2.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 1 << 30}}})
	ctx, cancel := context.WithTimeout(bg, 20*time.Second)
	defer cancel()
	if err := s2.WaitQuiesce(ctx); !errors.Is(err, cluster.ErrSiteLost) {
		t.Fatalf("WaitQuiesce against a half-open daemon = %v, want ErrSiteLost", err)
	}
}

// With heartbeats enabled, a healthy-but-idle deployment must NOT be
// declared lost: the daemon's PONGs are the liveness proof that spans
// idle periods far longer than the missed-beat budget.
func TestHeartbeatIdleNoFalsePositive(t *testing.T) {
	registerTestAlgos()
	tr := dialNet(t, 1, 2, tcpnet.Server{}, tcpnet.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   2,
	})
	c := cluster.NewWithTransport(tr)
	defer c.Shutdown()
	time.Sleep(400 * time.Millisecond) // 10× the detection budget, fully idle
	if lost := tr.Lost(); len(lost) != 0 {
		t.Fatalf("idle healthy daemon declared lost: %v", lost)
	}
	s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoEcho}, nil)
	defer s.Close()
	s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 6}}})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatalf("session after long idle: %v", err)
	}
}

// Duplicate and forged ACK deliveries must never falsely reach the
// termination certificate: the per-site outstanding ledger clamps every
// retirement to work actually routed there, so a later quiesce window
// still requires full completion. Runs on every backend — the clamp
// lives at the cluster seam the transports all feed.
func TestMatrixDuplicateAckNoFalseTermination(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoEcho}, nil)
		defer s.Close()
		s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 10}}})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		// The session is drained. Replay a retirement (a retransmitting
		// daemon), forge a huge batch, and claim work at a site that
		// does not exist; all three must clamp to zero.
		c.Retired(s.ID(), 0, 0, 0, 1)
		c.Retired(s.ID(), 1, 0, 0, 1000)
		c.Retired(s.ID(), 99, 0, 0, 5)
		// The next quiesce window must still require every hop: if any
		// forged done leaked, inflight would start negative and this
		// phase would certify before the ring finished (or instantly).
		s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 10}}})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().DataMsgs; got != 22 {
			t.Fatalf("DataMsgs = %d, want 22 — a forged ACK moved the termination certificate", got)
		}
	})
}
