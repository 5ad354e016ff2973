package tcpnet_test

// Distributed-tracing conformance: the traced-session behaviors every
// backend must share — a complete span tree whose totals reproduce the
// session's Stats, an empty-but-present trace for an idle session (the
// daemons owe one TRACE per traced session even when no message
// flowed), graceful degradation to a partial trace when a daemon is
// lost before reporting, and nil for untraced sessions.

import (
	"context"
	"net"
	"testing"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/obs"
	"dgs/internal/transport/tcpnet"
	"dgs/internal/wire"
)

// traceCtx bounds span collection: a regression that stops TRACE
// frames from resolving the driver's wait must fail the test, not hang
// it for the full go-test timeout.
func traceCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// forEachTraceBackend runs body on the plain backends: in-process and
// one- and two-daemon TCP.
func forEachTraceBackend(t *testing.T, n int, body func(t *testing.T, c *cluster.Cluster)) {
	registerTestAlgos()
	for _, be := range []backend{
		{"inproc", func(t *testing.T, n int) *cluster.Cluster {
			return cluster.New(n, cluster.Network{})
		}},
		tcpBackend(1),
		tcpBackend(2),
	} {
		be := be
		t.Run(be.name, func(t *testing.T) {
			c := be.mk(t, n)
			defer c.Shutdown()
			body(t, c)
		})
	}
}

// A traced session yields a complete span tree on every backend:
// coordinator plus every worker site, with message totals equal to the
// session's own accounting (each message counted once at its receiver).
func TestMatrixTraceRoundTrip(t *testing.T) {
	const n = 4
	forEachTraceBackend(t, n, func(t *testing.T, c *cluster.Cluster) {
		var replies int
		coord := cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) { replies++ })
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoReply, TraceID: 77}, coord)
		s.Broadcast(&wire.Control{Op: 1})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		s.Close()
		tr, err := s.Trace(traceCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || tr.TraceID != 77 {
			t.Fatalf("traced session returned trace %+v", tr)
		}
		if !tr.Complete {
			t.Fatal("trace incomplete with every daemon alive")
		}
		seen := map[int]bool{}
		for _, site := range tr.Sites {
			seen[site.Site] = true
		}
		if !seen[obs.CoordinatorSite] {
			t.Fatalf("trace lacks coordinator spans: %+v", tr.Sites)
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				t.Fatalf("trace lacks site %d spans: %+v", i, tr.Sites)
			}
		}
		_, msgsIn, msgsOut, bytesIn, bytesOut, _ := tr.Totals()
		wantMsgs := st.ControlMsgs + st.DataMsgs + st.ResultMsgs
		wantBytes := st.ControlBytes + st.DataBytes + st.ResultBytes
		if msgsIn != wantMsgs || msgsOut != wantMsgs {
			t.Fatalf("span msgs in=%d out=%d, want %d (stats: %+v)", msgsIn, msgsOut, wantMsgs, st)
		}
		if bytesIn != wantBytes || bytesOut != wantBytes {
			t.Fatalf("span bytes in=%d out=%d, want %d", bytesIn, bytesOut, wantBytes)
		}
	})
}

// A traced session that closes without any traffic still resolves: the
// daemons ship their (empty) TRACE frames on the CLOSE, and the
// driver's wait must find them. This is the regression test for the
// driver dropping its trace wait before the frames arrive.
func TestMatrixTraceIdleSessionResolves(t *testing.T) {
	forEachTraceBackend(t, 3, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoNop, TraceID: 5}, nil)
		s.Close()
		tr, err := s.Trace(traceCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || !tr.Complete {
			t.Fatalf("idle traced session: trace = %+v", tr)
		}
	})
}

// An untraced session has no trace — on any backend, with no waiting.
func TestMatrixUntracedTraceNil(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoNop}, nil)
		s.Broadcast(&wire.Control{Op: 1})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		s.Close()
		tr, err := s.Trace(traceCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Fatalf("untraced session returned a trace: %+v", tr)
		}
	})
}

// A daemon lost before it shipped its TRACE frame must not block the
// collector: the wait resolves with the surviving daemon's spans and the
// trace is marked incomplete. The second daemon sits behind a proxy
// that goes silent after the session quiesced, so its CLOSE never
// arrives and the heartbeat declares it lost.
func TestTraceLostConnectionPartial(t *testing.T) {
	registerTestAlgos()
	addrs := make([]string, 2)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		go (&tcpnet.Server{}).Serve(lis)
		addrs[i] = lis.Addr().String()
	}
	doomed := newMutableProxy(t, addrs[1])
	addrs[1] = doomed.addr()
	tr, err := tcpnet.Dial(context.Background(), addrs, trivialFragmentation(t, 4),
		tcpnet.Options{HeartbeatInterval: 20 * time.Millisecond, HeartbeatMisses: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewWithTransport(tr)
	defer c.Shutdown()
	s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoReply, TraceID: 9}, nil)
	s.Broadcast(&wire.Control{Op: 1})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	doomed.muted.Store(true)
	s.Close()
	qt, err := s.Trace(traceCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if qt == nil || qt.Complete {
		t.Fatalf("trace with a daemon lost before its TRACE frame = %+v, want a partial trace", qt)
	}
	for _, site := range qt.Sites {
		if site.Site >= 2 {
			t.Fatalf("lost daemon's site %d produced spans", site.Site)
		}
	}
}
