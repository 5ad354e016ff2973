package cluster

// The site executor, run by run: the mailbox hands its queue over whole,
// a chunk splits into same-session runs, and a run is delivered in
// order, then retired once with its count — after everything its
// handler emitted.

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
	m := newMailbox()
	for i := 0; i < 5; i++ {
		m.put(envelope{from: i, data: []byte{byte(i)}})
	}
	first, ok := m.drain(nil)
	if !ok || len(first) != 5 {
		t.Fatalf("drain = %d envelopes, ok=%v; want the whole queue of 5", len(first), ok)
	}
	for i, e := range first {
		if e.from != i {
			t.Fatalf("envelope %d came out as %d: not FIFO", i, e.from)
		}
	}
	m.put(envelope{from: 5, data: []byte{5}})
	second, ok := m.drain(first)
	if !ok || len(second) != 1 || second[0].from != 5 {
		t.Fatalf("second drain = %+v, ok=%v", second, ok)
	}
	for i, e := range first {
		if e.data != nil {
			t.Fatalf("consumed envelope %d still pins its payload", i)
		}
	}
	// The consumed chunk is the queue now: the next put lands in its array.
	m.put(envelope{from: 6})
	if third, _ := m.drain(second); &third[0] != &first[0] {
		t.Fatal("the recycled chunk was not reused as the queue")
	}

	// A burst's buffer is dropped rather than pinned to an idle site.
	for i := 0; i <= maxSpare; i++ {
		m.put(envelope{})
	}
	burst, _ := m.drain(nil)
	if cap(burst) <= maxSpare {
		t.Fatalf("burst of %d fit a %d-entry buffer", maxSpare+1, cap(burst))
	}
	m.put(envelope{})
	m.drain(burst)
	m.put(envelope{})
	if after, _ := m.drain(nil); cap(after) > maxSpare {
		t.Fatalf("a %d-entry burst buffer was kept as the queue", cap(after))
	}

	m.close()
	if _, ok := m.drain(nil); ok {
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
func (k *recSink) Retire(qid uint64, site int, busy time.Duration, rounds int64, n int) {
	k.add("retire q%d x%d", qid, n)
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
// retired once with its count after its own output; a session closed
// while its envelopes were queued gets neither deliveries nor a
// retirement.
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
		"send q1", "retire q1 x1",
		"send q1", "send q1", "retire q1 x2",
		"send q2", "send q2", "retire q2 x2",
		"send q1", "retire q1 x1",
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
		"send q1", "retire q1 x1",
		"send q1", // the Recv that was in progress; its run-mate is dropped
		"send q2", "retire q2 x1",
	}
	if got := sink.waitFor(t, len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("sink saw %v\nwant    %v", got, want)
	}
}

// spyNet is the in-process transport with its upcalls observed: the
// count of every retirement, and the session's in-flight counter at the
// moment each site-originated message is routed.
type spyNet struct {
	*InProc
	ev       Events
	sess     func() *Session
	mu       sync.Mutex
	retired  []int
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
func (n *spyNet) Retired(qid uint64, site int, busy time.Duration, rounds int64, k int) {
	if site == 0 {
		n.mu.Lock()
		n.retired = append(n.retired, k)
		n.mu.Unlock()
	}
	n.ev.Retired(qid, site, busy, rounds, k)
}
func (n *spyNet) Fail(qid uint64, err error) { n.ev.Fail(qid, err) }

// A run of n queued envelopes is retired by exactly one Retired(…, n),
// and while the run's handler output is being routed the session still
// counts the whole run in flight — the counter cannot touch zero before
// the output it certifies is accounted.
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
	if want := []int{1, n}; !reflect.DeepEqual(tr.retired, want) {
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
