package cluster

// The site executor, run by run: the mailbox hands its queue over whole,
// a chunk splits into same-session runs, and a run is delivered in
// order, then retired once with the site's cumulative count — after
// everything its handler emitted.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dgs/internal/wire"
)

func TestMailboxDrainFIFOReleasesConsumed(t *testing.T) {
	m := NewQueue[envelope]()
	for i := 0; i < 5; i++ {
		m.Put(envelope{from: i, data: []byte{byte(i)}})
	}
	first, ok := m.Drain(nil)
	if !ok || len(first) != 5 {
		t.Fatalf("drain = %d envelopes, ok=%v; want the whole queue of 5", len(first), ok)
	}
	for i, e := range first {
		if e.from != i {
			t.Fatalf("envelope %d came out as %d: not FIFO", i, e.from)
		}
	}
	m.Put(envelope{from: 5, data: []byte{5}})
	second, ok := m.Drain(first)
	if !ok || len(second) != 1 || second[0].from != 5 {
		t.Fatalf("second drain = %+v, ok=%v", second, ok)
	}
	for i, e := range first {
		if e.data != nil {
			t.Fatalf("consumed envelope %d still pins its payload", i)
		}
	}
	// The consumed chunk is the queue now: the next put lands in its array.
	m.Put(envelope{from: 6})
	if third, _ := m.Drain(second); &third[0] != &first[0] {
		t.Fatal("the recycled chunk was not reused as the queue")
	}

	// A burst's buffer is dropped rather than pinned to an idle site.
	for i := 0; i <= maxSpare; i++ {
		m.Put(envelope{})
	}
	burst, _ := m.Drain(nil)
	if cap(burst) <= maxSpare {
		t.Fatalf("burst of %d fit a %d-entry buffer", maxSpare+1, cap(burst))
	}
	m.Put(envelope{})
	m.Drain(burst)
	m.Put(envelope{})
	if after, _ := m.Drain(nil); cap(after) > maxSpare {
		t.Fatalf("a %d-entry burst buffer was kept as the queue", cap(after))
	}

	m.Close()
	if _, ok := m.Drain(nil); ok {
		t.Fatal("drain after close and drain reported ok")
	}
}

// recSink records a SiteHost's upcalls in order.
type recSink struct {
	mu     sync.Mutex
	events []string
}

func (k *recSink) add(format string, args ...any) {
	k.mu.Lock()
	k.events = append(k.events, fmt.Sprintf(format, args...))
	k.mu.Unlock()
}

func (k *recSink) ForwardSend(qid uint64, from, to int, data []byte) { k.add("send q%d", qid) }
func (k *recSink) Retire(qid uint64, site int, busy time.Duration, rounds int64, cum uint64) {
	k.add("retire q%d cum%d", qid, cum)
}
func (k *recSink) Fatal(err error) { k.add("fatal %v", err) }

func (k *recSink) waitFor(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		k.mu.Lock()
		got := append([]string(nil), k.events...)
		k.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d of %d sink events: %v", len(got), n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedReply answers every message with one send; a message of Op 1
// first parks the site on gate, so a chunk builds up behind it.
type gatedReply struct{ entered, gate chan struct{} }

func (g gatedReply) Recv(ctx *Ctx, from int, p wire.Payload) {
	if c, ok := p.(*wire.Control); ok && c.Op == 1 {
		g.entered <- struct{}{}
		<-g.gate
	}
	ctx.Send(Coordinator, &wire.Control{})
}

// A chunk interleaving sessions splits into same-session runs, each
// retired once after its own output with the site's running count for
// its session; a session closed while its envelopes were queued gets
// neither deliveries nor a retirement.
func TestSiteLoopSplitsChunkIntoRuns(t *testing.T) {
	sink := &recSink{}
	h := NewSiteHost(1, []int{0}, nil, nil, Network{}, sink)
	defer h.Shutdown()
	g := gatedReply{entered: make(chan struct{}), gate: make(chan struct{})}
	for qid := uint64(1); qid <= 3; qid++ {
		if err := h.OpenHandlers(qid, map[int]Handler{0: g}); err != nil {
			t.Fatal(err)
		}
	}
	msg := wire.Encode(&wire.Control{})
	h.Enqueue(1, Coordinator, 0, wire.Encode(&wire.Control{Op: 1}))
	<-g.entered // the site is parked inside session 1's first run
	for _, qid := range []uint64{1, 1, 2, 2, 3, 1} {
		h.Enqueue(qid, Coordinator, 0, msg)
	}
	h.CloseSession(3)
	close(g.gate)
	want := []string{
		"send q1", "retire q1 cum1",
		"send q1", "send q1", "retire q1 cum3",
		"send q2", "send q2", "retire q2 cum2",
		"send q1", "retire q1 cum4",
	}
	if got := sink.waitFor(t, len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("sink saw %v\nwant    %v", got, want)
	}
}

// A session closed while a site is inside one of its runs gets the
// Recv in progress and nothing after it: the rest of the run is neither
// delivered nor retired.
func TestSessionClosedMidRunDropsRest(t *testing.T) {
	sink := &recSink{}
	h := NewSiteHost(1, []int{0}, nil, nil, Network{}, sink)
	defer h.Shutdown()
	g := gatedReply{entered: make(chan struct{}), gate: make(chan struct{})}
	for qid := uint64(1); qid <= 2; qid++ {
		if err := h.OpenHandlers(qid, map[int]Handler{0: g}); err != nil {
			t.Fatal(err)
		}
	}
	park, msg := wire.Encode(&wire.Control{Op: 1}), wire.Encode(&wire.Control{})
	h.Enqueue(1, Coordinator, 0, park)
	<-g.entered // parked in a run of one; the next two queue up as one run
	h.Enqueue(1, Coordinator, 0, park)
	h.Enqueue(1, Coordinator, 0, msg)
	g.gate <- struct{}{}
	<-g.entered // parked in the first Recv of the two-envelope run
	h.CloseSession(1)
	g.gate <- struct{}{}
	h.Enqueue(2, Coordinator, 0, msg)
	want := []string{
		"send q1", "retire q1 cum1",
		"send q1", // the Recv that was in progress; its run-mate is dropped
		"send q2", "retire q2 cum1",
	}
	if got := sink.waitFor(t, len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("sink saw %v\nwant    %v", got, want)
	}
}

// spyNet is the in-process transport with its upcalls observed: the
// cumulative count of every retirement, and the session's in-flight
// counter at the moment each site-originated message is routed.
type spyNet struct {
	*InProc
	ev       Events
	sess     func() *Session
	mu       sync.Mutex
	retired  []uint64
	inflight []int64
}

func (n *spyNet) Bind(ev Events) { n.ev = ev; n.InProc.Bind(n) }

func (n *spyNet) SiteSent(qid uint64, from, to int, data []byte) {
	n.mu.Lock()
	n.inflight = append(n.inflight, n.sess().inflight.Load())
	n.mu.Unlock()
	n.ev.SiteSent(qid, from, to, data)
}
func (n *spyNet) Deliver(qid uint64, from int, data []byte) { n.ev.Deliver(qid, from, data) }
func (n *spyNet) Retired(qid uint64, site int, busy time.Duration, rounds int64, k uint64) {
	if site == 0 {
		n.mu.Lock()
		n.retired = append(n.retired, k)
		n.mu.Unlock()
	}
	n.ev.Retired(qid, site, busy, rounds, k)
}
func (n *spyNet) Fail(qid uint64, err error) { n.ev.Fail(qid, err) }

// A run of n queued envelopes is retired by exactly one Retired, whose
// cumulative count grows by n, and while the run's handler output is
// being routed the session still counts the whole run in flight — the
// counter cannot touch zero before the output it certifies is accounted.
func TestRunRetiredOnceAfterItsOutput(t *testing.T) {
	const n = 7
	var s *Session
	tr := &spyNet{InProc: NewInProc(2, nil, Network{}), sess: func() *Session { return s }}
	c := NewWithTransport(tr)
	defer c.Shutdown()
	g := gatedReply{entered: make(chan struct{}), gate: make(chan struct{})}
	s = c.NewSession([]Handler{g, nopHandler{}}, nopHandler{})
	defer s.Close()

	s.Inject(0, &wire.Control{Op: 1})
	<-g.entered
	for i := 0; i < n; i++ {
		s.Inject(0, &wire.Control{})
	}
	close(g.gate)
	if err := s.WaitQuiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if want := []uint64{1, 1 + n}; !reflect.DeepEqual(tr.retired, want) {
		t.Fatalf("site 0 retirements = %v, want %v (the parked message, then the run)", tr.retired, want)
	}
	if len(tr.inflight) != 1+n {
		t.Fatalf("routed %d replies, want %d", len(tr.inflight), 1+n)
	}
	// Replies go to the coordinator, which may retire them at once, so
	// the floor is the run itself: all n of its envelopes still in flight.
	for i, v := range tr.inflight[1:] {
		if v < n {
			t.Fatalf("reply %d of the run was routed with %d in flight, want ≥ %d", i, v, n)
		}
	}
}

// dropNet is the in-process transport with its sends swallowed: what is
// routed to a site stays outstanding until the test retires it.
type dropNet struct{ *InProc }

func (dropNet) Send(uint64, int, int, []byte) {}

// A retirement carries the site's cumulative count, so replaying one
// retires nothing: with two messages routed to a site, the same
// retirement delivered twice leaves one in flight, and only the count
// covering both certifies termination.
func TestReplayedRetirementRetiresNothing(t *testing.T) {
	c := NewWithTransport(dropNet{NewInProc(1, nil, Network{})})
	defer c.Shutdown()
	s := c.NewSession(nopSites(1), nopHandler{})
	defer s.Close()
	s.Inject(0, &wire.Control{})
	s.Inject(0, &wire.Control{})
	c.Retired(s.ID(), 0, 0, 0, 1)
	c.Retired(s.ID(), 0, 0, 0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.WaitQuiesce(ctx); err == nil {
		t.Fatal("a replayed retirement certified termination with a message outstanding")
	}
	c.Retired(s.ID(), 0, 0, 0, 2)
	if err := s.WaitQuiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSiteHostStorm is the executor's inner loop with nothing else
// on the clock: one driver goroutine injects b.N control messages round
// robin into 8 in-process sites running a no-op handler, so the cost per
// op is encode + route + mailbox + decode + retirement.
//
//	go test -run '^$' -bench SiteHostStorm ./internal/cluster
func BenchmarkSiteHostStorm(b *testing.B) {
	const sites = 8
	c := New(sites, Network{})
	defer c.Shutdown()
	s := c.NewSession(nopSites(sites), nopHandler{})
	defer s.Close()
	p := &wire.Control{Op: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Inject(i%sites, p)
	}
	if err := s.WaitQuiesce(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/msg")
}
