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
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/wire"
)

func TestMailboxDrainFIFOReleasesConsumed(t *testing.T) {
	m := NewQueue[envelope](mailboxSpare)
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
	for i := 0; i <= mailboxSpare; i++ {
		m.Put(envelope{})
	}
	burst, _ := m.Drain(nil)
	if cap(burst) <= mailboxSpare {
		t.Fatalf("burst of %d fit a %d-entry buffer", mailboxSpare+1, cap(burst))
	}
	m.Put(envelope{})
	m.Drain(burst)
	m.Put(envelope{})
	if after, _ := m.Drain(nil); cap(after) > mailboxSpare {
		t.Fatalf("a %d-entry burst buffer was kept as the queue", cap(after))
	}

	m.Close()
	if _, ok := m.Drain(nil); ok {
		t.Fatal("drain after close and drain reported ok")
	}
}

// recSink records a SiteHost's upcalls in order, and the sends of every
// EndRun.
type recSink struct {
	mu     sync.Mutex
	events []string
	sends  [][]wire.BatchMsg
}

func (k *recSink) add(format string, args ...any) {
	k.mu.Lock()
	k.events = append(k.events, fmt.Sprintf(format, args...))
	k.mu.Unlock()
}

func (k *recSink) EndRun(qid uint64, site int, sends []wire.BatchMsg, busy time.Duration, rounds int64, cum uint64) {
	k.mu.Lock()
	// The host reuses its outbox after the call: keep a copy.
	k.sends = append(k.sends, append([]wire.BatchMsg(nil), sends...))
	k.mu.Unlock()
	k.add("run q%d sends%d cum%d", qid, len(sends), cum)
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
// first parks the site on gate, so a chunk builds up behind it. recvs,
// when set, counts the Recvs.
type gatedReply struct {
	entered, gate chan struct{}
	recvs         *atomic.Int32
}

func (g gatedReply) Recv(ctx *Ctx, from int, p wire.Payload) {
	if g.recvs != nil {
		g.recvs.Add(1)
	}
	if c, ok := p.(*wire.Control); ok && c.Op == 1 {
		g.entered <- struct{}{}
		<-g.gate
	}
	ctx.Send(Coordinator, &wire.Control{})
}

// enqueue delivers one encoded payload from the coordinator to site 0.
func enqueue(h *SiteHost, qid uint64, data []byte) {
	h.Enqueue(qid, []wire.BatchMsg{{From: Coordinator, To: 0, Data: data}})
}

// A chunk interleaving sessions splits into same-session runs, each
// handed over by one EndRun carrying its own output and the site's
// running count for its session; a session closed while its envelopes
// were queued gets neither deliveries nor a retirement.
func TestSiteLoopSplitsChunkIntoRuns(t *testing.T) {
	sink := &recSink{}
	h := NewSiteHost(1, []int{0}, nil, nil, sink)
	defer h.Shutdown()
	g := gatedReply{entered: make(chan struct{}), gate: make(chan struct{})}
	for qid := uint64(1); qid <= 3; qid++ {
		if err := h.OpenHandlers(qid, map[int]Handler{0: g}); err != nil {
			t.Fatal(err)
		}
	}
	msg := wire.Encode(&wire.Control{})
	enqueue(h, 1, wire.Encode(&wire.Control{Op: 1}))
	<-g.entered // the site is parked inside session 1's first run
	for _, qid := range []uint64{1, 1, 2, 2, 3, 1} {
		enqueue(h, qid, msg)
	}
	h.CloseSession(3)
	close(g.gate)
	want := []string{
		"run q1 sends1 cum1",
		"run q1 sends2 cum3",
		"run q2 sends2 cum2",
		"run q1 sends1 cum4",
	}
	if got := sink.waitFor(t, len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("sink saw %v\nwant    %v", got, want)
	}
}

// A session closed while a site is inside one of its runs gets the
// Recv in progress and nothing after it: the rest of the run is not
// delivered, and the run is neither handed over nor retired.
func TestSessionClosedMidRunDropsRest(t *testing.T) {
	sink := &recSink{}
	h := NewSiteHost(1, []int{0}, nil, nil, sink)
	defer h.Shutdown()
	var recvs atomic.Int32 // session 1's
	g := gatedReply{entered: make(chan struct{}), gate: make(chan struct{}), recvs: &recvs}
	if err := h.OpenHandlers(1, map[int]Handler{0: g}); err != nil {
		t.Fatal(err)
	}
	if err := h.OpenHandlers(2, map[int]Handler{0: gatedReply{}}); err != nil {
		t.Fatal(err)
	}
	park, msg := wire.Encode(&wire.Control{Op: 1}), wire.Encode(&wire.Control{})
	enqueue(h, 1, park)
	<-g.entered // parked in a run of one; the next two queue up as one run
	enqueue(h, 1, park)
	enqueue(h, 1, msg)
	g.gate <- struct{}{}
	<-g.entered // parked in the first Recv of the two-envelope run
	h.CloseSession(1)
	g.gate <- struct{}{}
	enqueue(h, 2, msg)
	want := []string{
		"run q1 sends1 cum1",
		// The two-envelope run is gone: the Recv in progress completed,
		// its run-mate and the run's output were dropped.
		"run q2 sends1 cum1",
	}
	if got := sink.waitFor(t, len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("sink saw %v\nwant    %v", got, want)
	}
	if n := recvs.Load(); n != 2 {
		t.Fatalf("session 1 saw %d Recvs, want 2: the run-mate of the Recv in progress was delivered", n)
	}
}

// A handler that sends k messages in one Recv hands its site's run over
// as exactly one EndRun carrying those k messages, from the site, in
// send order.
func TestRunLeavesItsSiteAsOneEndRun(t *testing.T) {
	const k = 5
	sink := &recSink{}
	h := NewSiteHost(3, []int{1}, nil, nil, sink)
	defer h.Shutdown()
	fan := HandlerFunc(func(ctx *Ctx, _ int, _ wire.Payload) {
		for i := 0; i < k; i++ {
			ctx.Send([]int{Coordinator, 0, 2}[i%3], &wire.Control{Op: uint8(10 + i)})
		}
	})
	if err := h.OpenHandlers(7, map[int]Handler{1: fan}); err != nil {
		t.Fatal(err)
	}
	h.Enqueue(7, []wire.BatchMsg{{From: Coordinator, To: 1, Data: wire.Encode(&wire.Control{})}})
	if got, want := sink.waitFor(t, 1), []string{"run q7 sends5 cum1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sink saw %v, want %v", got, want)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, m := range sink.sends[0] {
		p, err := wire.Decode(m.Data)
		if err != nil {
			t.Fatal(err)
		}
		if c := p.(*wire.Control); m.From != 1 || int(m.To) != []int{Coordinator, 0, 2}[i%3] || c.Op != uint8(10+i) {
			t.Fatalf("send %d = %d→%d op %d, want 1→%d op %d", i, m.From, m.To, c.Op, []int{Coordinator, 0, 2}[i%3], 10+i)
		}
	}
}

// spyNet is the in-process transport with its upcalls observed: the
// cumulative count of every retirement, and for every run of
// site-originated messages its length and the session's in-flight
// counter at the moment it is routed.
type spyNet struct {
	*InProc
	ev       Events
	sess     func() *Session
	mu       sync.Mutex
	retired  []uint64
	runs     []int
	inflight []int64
}

func (n *spyNet) Bind(ev Events) { n.ev = ev; n.InProc.Bind(n) }

func (n *spyNet) SiteSent(qid uint64, msgs []wire.BatchMsg) {
	n.mu.Lock()
	n.runs = append(n.runs, len(msgs))
	n.inflight = append(n.inflight, n.sess().inflight.Load())
	n.mu.Unlock()
	n.ev.SiteSent(qid, msgs)
}
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
// cumulative count grows by n, behind one SiteSent carrying the run's n
// replies; while that output is being routed the session still counts
// the whole run in flight — the counter cannot touch zero before the
// output it certifies is accounted.
func TestRunRetiredOnceAfterItsOutput(t *testing.T) {
	const n = 7
	var s *Session
	tr := &spyNet{InProc: NewInProc(2, nil), sess: func() *Session { return s }}
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
	if want := []int{1, n}; !reflect.DeepEqual(tr.runs, want) {
		t.Fatalf("site output routed in runs of %v, want %v (the parked message's reply, then the run's)", tr.runs, want)
	}
	// Replies go to the coordinator, which may retire them at once, so
	// the floor is the run itself: all n of its envelopes still in flight.
	if v := tr.inflight[1]; v < n {
		t.Fatalf("the run's replies were routed with %d in flight, want ≥ %d", v, n)
	}
}

// dropNet is the in-process transport with its sends swallowed: what is
// routed to a site stays outstanding until the test retires it.
type dropNet struct{ *InProc }

func (dropNet) Send(uint64, []wire.BatchMsg) {}

// A retirement carries the site's cumulative count, so replaying one
// retires nothing: with two messages routed to a site, the same
// retirement delivered twice leaves one in flight, and only the count
// covering both certifies termination.
func TestReplayedRetirementRetiresNothing(t *testing.T) {
	c := NewWithTransport(dropNet{NewInProc(1, nil)})
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
	c := New(sites)
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

// The driver's sends borrow pooled run buffers: Injects and Broadcasts
// from several goroutines at once each reach their sites exactly once
// and are counted once.
func TestConcurrentInjectsDeliveredOnce(t *testing.T) {
	const n, senders, each = 4, 4, 50
	c := New(n)
	defer c.Shutdown()
	var got [n]atomic.Int32
	sites := make([]Handler, n)
	for i := range sites {
		sites[i] = HandlerFunc(func(ctx *Ctx, _ int, _ wire.Payload) { got[ctx.Self()].Add(1) })
	}
	s := c.NewSession(sites, nopHandler{})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%10 == 0 {
					s.Broadcast(&wire.Control{})
				} else {
					s.Inject(i%n, &wire.Control{})
				}
			}
		}()
	}
	wg.Wait()
	if err := s.WaitQuiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Per sender: 5 broadcasts reach every site, and 45 injects go round
	// the sites by i%n.
	total := int64(0)
	for site := range got {
		want := int32(0)
		for i := 0; i < each; i++ {
			if i%10 == 0 || i%n == site {
				want++
			}
		}
		want *= senders
		if v := got[site].Load(); v != want {
			t.Errorf("site %d received %d messages, want %d", site, v, want)
		}
		total += int64(want)
	}
	if st := s.Stats(); st.ControlMsgs != total {
		t.Fatalf("ControlMsgs = %d, want %d", st.ControlMsgs, total)
	}
}
