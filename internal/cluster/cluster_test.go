package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/wire"
)

// bg is the no-deadline context used by tests that expect quiescence.
var bg = context.Background()

// echoSite forwards each falsify message to the next site, decrementing a
// hop budget carried in the first pair's V field.
type echoSite struct{}

func (echoSite) Recv(ctx *Ctx, from int, p wire.Payload) {
	f, ok := p.(*wire.Falsify)
	if !ok || len(f.Pairs) == 0 {
		return
	}
	hops := f.Pairs[0].V
	if hops == 0 {
		return
	}
	next := (ctx.Self() + 1) % ctx.NumSites()
	ctx.Send(next, &wire.Falsify{Pairs: []wire.VarRef{{U: f.Pairs[0].U, V: hops - 1}}})
}

type nopHandler struct{}

func (nopHandler) Recv(*Ctx, int, wire.Payload) {}

func nopSites(n int) []Handler {
	sites := make([]Handler, n)
	for i := range sites {
		sites[i] = nopHandler{}
	}
	return sites
}

func TestRingQuiesces(t *testing.T) {
	c := New(4, Network{})
	defer c.Shutdown()
	sites := make([]Handler, 4)
	for i := range sites {
		sites[i] = echoSite{}
	}
	s := c.NewSession(sites, nopHandler{})
	defer s.Close()
	s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: 10}}})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// 1 injected + 10 forwarded = 11 data messages.
	if st.DataMsgs != 11 {
		t.Fatalf("DataMsgs = %d, want 11", st.DataMsgs)
	}
	if st.DataBytes != 11*11 { // falsify with one pair encodes to 11 bytes
		t.Fatalf("DataBytes = %d", st.DataBytes)
	}
	if st.ControlMsgs != 0 || st.ResultMsgs != 0 {
		t.Fatalf("unexpected control/result traffic: %+v", st)
	}
}

func TestBroadcastReachesAllSites(t *testing.T) {
	var got atomic.Int64
	c := New(8, Network{})
	defer c.Shutdown()
	sites := make([]Handler, 8)
	for i := range sites {
		sites[i] = HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
			if from != Coordinator {
				t.Errorf("from = %d", from)
			}
			got.Add(1)
		})
	}
	s := c.NewSession(sites, nopHandler{})
	defer s.Close()
	s.Broadcast(&wire.Control{Op: 1})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 8 {
		t.Fatalf("delivered %d, want 8", got.Load())
	}
	st := s.Stats()
	if st.ControlMsgs != 8 || st.DataMsgs != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCoordinatorRoundTrip(t *testing.T) {
	// Sites reply to the coordinator with a Matches message; the
	// coordinator accumulates and the driver reads the result.
	var mu sync.Mutex
	seen := map[int]bool{}
	n := 5
	c := New(n, Network{})
	defer c.Shutdown()
	sites := make([]Handler, n)
	for i := range sites {
		sites[i] = HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
			ctx.Send(Coordinator, &wire.Matches{Frag: uint16(ctx.Self())})
		})
	}
	coord := HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
		if ctx.Self() != Coordinator {
			t.Errorf("coordinator self = %d", ctx.Self())
		}
		m := p.(*wire.Matches)
		mu.Lock()
		seen[int(m.Frag)] = true
		mu.Unlock()
	})
	s := c.NewSession(sites, coord)
	defer s.Close()
	s.Broadcast(&wire.Control{Op: 2})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("coordinator saw %d sites", len(seen))
	}
	st := s.Stats()
	if st.ResultMsgs != int64(n) {
		t.Fatalf("ResultMsgs = %d", st.ResultMsgs)
	}
}

// A dense all-to-all burst would deadlock bounded channels; the unbounded
// mailboxes must absorb it.
func TestAllToAllBurstNoDeadlock(t *testing.T) {
	n := 10
	c := New(n, Network{})
	defer c.Shutdown()
	sites := make([]Handler, n)
	for i := range sites {
		sites[i] = HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
			f := p.(*wire.Falsify)
			if len(f.Pairs) > 0 && f.Pairs[0].V > 0 {
				for j := 0; j < ctx.NumSites(); j++ {
					ctx.Send(j, &wire.Falsify{Pairs: []wire.VarRef{{V: f.Pairs[0].V - 1}}})
				}
			}
		})
	}
	s := c.NewSession(sites, nopHandler{})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		s.Broadcast(&wire.Falsify{Pairs: []wire.VarRef{{V: 2}}})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: burst did not quiesce")
	}
	// n injected, each spawns n (V=1), each of those spawns n (V=0).
	want := int64(n + n*n + n*n*n)
	if got := s.Stats().DataMsgs; got != want {
		t.Fatalf("DataMsgs = %d, want %d", got, want)
	}
}

func TestMultiPhase(t *testing.T) {
	// Phase 1 then phase 2 on the same session; WaitQuiesce twice.
	var phase1, phase2 atomic.Int64
	c := New(3, Network{})
	defer c.Shutdown()
	sites := make([]Handler, 3)
	for i := range sites {
		sites[i] = HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
			ct := p.(*wire.Control)
			switch ct.Op {
			case 1:
				phase1.Add(1)
			case 2:
				phase2.Add(1)
			}
		})
	}
	s := c.NewSession(sites, nopHandler{})
	defer s.Close()
	s.Broadcast(&wire.Control{Op: 1})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if phase1.Load() != 3 || phase2.Load() != 0 {
		t.Fatalf("after phase 1: %d %d", phase1.Load(), phase2.Load())
	}
	s.Broadcast(&wire.Control{Op: 2})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if phase2.Load() != 3 {
		t.Fatalf("phase 2 deliveries = %d", phase2.Load())
	}
}

func TestRoundsCounter(t *testing.T) {
	c := New(1, Network{})
	defer c.Shutdown()
	s := c.NewSession([]Handler{HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
		ctx.AddRounds(2)
	})}, nopHandler{})
	defer s.Close()
	s.Inject(0, &wire.Control{})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Rounds != 2 {
		t.Fatalf("Rounds = %d", s.Stats().Rounds)
	}
}

func TestWaitQuiesceImmediateWhenQuiet(t *testing.T) {
	c := New(1, Network{})
	defer c.Shutdown()
	s := c.NewSession(nopSites(1), nopHandler{})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		if err := s.WaitQuiesce(bg); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitQuiesce hung on a quiet session")
	}
}

func TestMaxSiteBusyTracked(t *testing.T) {
	c := New(1, Network{})
	defer c.Shutdown()
	s := c.NewSession([]Handler{HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
		time.Sleep(5 * time.Millisecond)
	})}, nopHandler{})
	defer s.Close()
	s.Inject(0, &wire.Control{})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if s.Stats().MaxSiteBusy < 4*time.Millisecond {
		t.Fatalf("MaxSiteBusy = %v", s.Stats().MaxSiteBusy)
	}
}

// Two sessions on one cluster: traffic and stats must not bleed between
// them, and each quiesces independently — the property Deployment.Query
// relies on for concurrent queries.
func TestConcurrentSessionsIsolated(t *testing.T) {
	n := 4
	c := New(n, Network{})
	defer c.Shutdown()

	mkSites := func() []Handler {
		sites := make([]Handler, n)
		for i := range sites {
			sites[i] = echoSite{}
		}
		return sites
	}
	var wg sync.WaitGroup
	hops := []uint32{5, 17, 9, 13}
	for _, h := range hops {
		wg.Add(1)
		go func(h uint32) {
			defer wg.Done()
			s := c.NewSession(mkSites(), nopHandler{})
			defer s.Close()
			s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: h}}})
			if err := s.WaitQuiesce(bg); err != nil {
				t.Error(err)
				return
			}
			if got := s.Stats().DataMsgs; got != int64(h)+1 {
				t.Errorf("session hops=%d: DataMsgs = %d, want %d", h, got, h+1)
			}
		}(h)
	}
	wg.Wait()
}

// Messages of a closed session are discarded without delivery, and new
// sends are suppressed, so an abandoned query cannot touch a later one.
func TestClosedSessionDropsTraffic(t *testing.T) {
	var delivered atomic.Int64
	c := New(1, Network{})
	defer c.Shutdown()
	block := make(chan struct{})
	s := c.NewSession([]Handler{HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
		<-block
		delivered.Add(1)
	})}, nopHandler{})
	s.Inject(0, &wire.Control{})
	s.Inject(0, &wire.Control{})
	// First message is (or will be) in Recv; the second is queued. Close,
	// then unblock: the queued message must be discarded.
	s.Close()
	close(block)
	if err := s.WaitQuiesce(bg); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitQuiesce on closed session = %v, want ErrClosed", err)
	}
	// A fresh session on the same cluster still works.
	s2 := c.NewSession(nopSites(1), nopHandler{})
	defer s2.Close()
	s2.Inject(0, &wire.Control{})
	if err := s2.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got > 1 {
		t.Fatalf("closed session delivered %d messages", got)
	}
}

func TestWaitQuiesceHonorsContext(t *testing.T) {
	c := New(1, Network{})
	defer c.Shutdown()
	block := make(chan struct{})
	defer close(block)
	s := c.NewSession([]Handler{HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
		<-block
	})}, nopHandler{})
	defer s.Close()
	s.Inject(0, &wire.Control{})
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.WaitQuiesce(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("WaitQuiesce returned after %v, not promptly", el)
	}
}

func TestNewSessionOnShutdownCluster(t *testing.T) {
	c := New(1, Network{})
	c.Shutdown()
	s := c.NewSession(nopSites(1), nopHandler{})
	s.Inject(0, &wire.Control{}) // must not panic
	if err := s.WaitQuiesce(bg); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	c := New(2, Network{})
	s := c.NewSession(nopSites(2), nopHandler{})
	s.Broadcast(&wire.Control{})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	c.Shutdown()
}

// Many sessions created and torn down in sequence must not leak:
// the registry shrinks back to empty.
func TestSessionRegistryDrains(t *testing.T) {
	c := New(2, Network{})
	defer c.Shutdown()
	for i := 0; i < 50; i++ {
		s := c.NewSession(nopSites(2), nopHandler{})
		s.Broadcast(&wire.Control{Op: uint8(i)})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	c.mu.RLock()
	live := len(c.sessions)
	c.mu.RUnlock()
	if live != 0 {
		t.Fatalf("%d sessions leaked in the registry", live)
	}
}

func TestNumSitesAndNetworkAccessors(t *testing.T) {
	net := Network{Latency: time.Millisecond}
	c := New(3, net)
	defer c.Shutdown()
	if c.NumSites() != 3 {
		t.Fatalf("NumSites = %d", c.NumSites())
	}
	if c.Network() != net {
		t.Fatalf("Network = %+v", c.Network())
	}
	if fmt.Sprint(c.Network().Latency) != "1ms" {
		t.Fatal("unexpected latency")
	}
}

func TestSessionKindsMultiplex(t *testing.T) {
	c := New(3, Network{})
	defer c.Shutdown()
	q1 := c.NewSession(nopSites(3), nopHandler{})
	defer q1.Close()
	m1 := c.NewSessionKind(SessionMaintenance, nopSites(3), nopHandler{})
	m2 := c.NewSessionKind(SessionMaintenance, nopSites(3), nopHandler{})
	if q1.Kind() != SessionQuery || m1.Kind() != SessionMaintenance {
		t.Fatalf("kinds: %v %v", q1.Kind(), m1.Kind())
	}
	if got := c.ActiveSessions(SessionQuery); got != 1 {
		t.Fatalf("query sessions = %d, want 1", got)
	}
	if got := c.ActiveSessions(SessionMaintenance); got != 2 {
		t.Fatalf("maintenance sessions = %d, want 2", got)
	}
	m2.Close()
	if got := c.ActiveSessions(SessionMaintenance); got != 1 {
		t.Fatalf("after close: maintenance sessions = %d, want 1", got)
	}
	// Both kinds drain traffic independently over the same site loops.
	q1.Broadcast(&wire.Control{Op: 1})
	m1.Broadcast(&wire.Control{Op: 2})
	if err := q1.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if err := m1.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if SessionQuery.String() != "query" || SessionMaintenance.String() != "maintenance" {
		t.Fatal("kind names")
	}
	m1.Close()
}

func TestStatsMinus(t *testing.T) {
	a := Stats{DataBytes: 100, DataMsgs: 10, ControlBytes: 30, ControlMsgs: 3, ResultBytes: 7, ResultMsgs: 1, Rounds: 5, Wall: time.Second}
	b := Stats{DataBytes: 40, DataMsgs: 4, ControlBytes: 10, ControlMsgs: 1, ResultBytes: 2, ResultMsgs: 1, Rounds: 2}
	d := a.Minus(b)
	if d.DataBytes != 60 || d.DataMsgs != 6 || d.ControlBytes != 20 || d.ControlMsgs != 2 ||
		d.ResultBytes != 5 || d.ResultMsgs != 0 || d.Rounds != 3 || d.Wall != time.Second {
		t.Fatalf("Minus: %+v", d)
	}
}

// A deployment-fatal transport failure must poison the cluster: live
// sessions fail with the cause, and sessions opened afterwards fail
// immediately instead of waiting forever on dropped sends.
func TestFatalFailurePoisonsCluster(t *testing.T) {
	c := New(2, Network{})
	defer c.Shutdown()
	s := c.NewSession(nopSites(2), nopHandler{})
	boom := errors.New("daemon lost")
	c.Fail(0, boom)
	if err := s.WaitQuiesce(bg); err != boom {
		t.Fatalf("live session WaitQuiesce = %v, want the failure cause", err)
	}
	//lint:allow regconsistent — any name works: the cluster is already dead
	s2, err := c.OpenSession(SessionQuery, SessionSpec{Algo: "anything"}, nopHandler{})
	if err != nil {
		t.Fatalf("OpenSession on a dead cluster must return a failed session, got error %v", err)
	}
	s2.Inject(0, &wire.Control{}) // must not panic or hang
	done := make(chan error, 1)
	go func() { done <- s2.WaitQuiesce(bg) }()
	select {
	case err := <-done:
		if err != boom {
			t.Fatalf("post-failure session WaitQuiesce = %v, want the failure cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-failure session hung — the dead transport was not surfaced")
	}
}
