// Package cluster is the distributed-runtime substrate: a driver-side
// coordinator plus n worker sites reached through a pluggable Transport.
// With the in-process backend it runs the paper's cluster (§6) in one
// process — one goroutine per site, every message really serialized
// through internal/wire, exact per-kind byte accounting — and with the TCP
// backend (internal/transport/tcpnet) the same sessions span OS
// processes, the sites living in dgsd daemons. Sites are reactive actors
// — they only act on received messages — which matches the asynchronous
// message passing model of dGPM (Fig. 3) as well as the superstep
// coordination dMes needs.
//
// The substrate is persistent: a Cluster is created once (the fragments
// become resident at its sites) and then serves any number of queries,
// sequentially or concurrently. Each query runs as a Session — per-site
// handlers registered under a fresh query ID, instantiated from a
// SessionSpec by the site-factory registry so that a remote site can
// build them from its resident fragment. Every envelope carries its
// session's query ID, so one site serves all in-flight queries,
// processing their messages serially per site (one machine, one event
// loop) while different sites run concurrently. Stats, quiescence
// detection and round counting are all per-session, which is what gives
// concurrent queries isolated accounting.
//
// Termination: the paper's dGPM detects a fixpoint via changed-flags at
// the coordinator. The runtime provides the equivalent guarantee with a
// per-session in-flight message counter — the count is positive while
// any of the session's messages is undelivered or being processed, so
// reaching zero certifies that query's global quiescence (sites are
// reactive, so no new message can appear out of thin air). On the TCP
// backend every message is routed through the driver and acknowledged
// after processing, which preserves the same invariant across process
// boundaries. Algorithms still exchange their protocol's control
// traffic, which is accounted separately from data shipment.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/obs"
	"dgs/internal/wire"
)

// Coordinator is the pseudo-site ID of the coordinator Sc.
const Coordinator = -1

// ErrClosed is returned by Session.WaitQuiesce when the session (or the
// whole cluster) was closed while waiting.
var ErrClosed = errors.New("cluster: session closed")

// ErrSiteLost is the typed cause of a site-loss failure: the transport
// lost contact with one or more worker sites but the deployment itself
// may be recoverable. Sessions in flight at the time fail with an error
// wrapping it, and the cluster suspends — new sessions are born failed
// with the same cause — until Resume is called after the lost fragments
// have been re-hosted. Check with errors.Is.
var ErrSiteLost = errors.New("cluster: site lost")

// Network is an empty placeholder: NewLocal still takes one, because the
// benchmark module (benchmark/probes.go) calls NewLocal(fr, Network{}).
// There is no link emulation; every backend pays only its real cost.
type Network struct{}

// Handler is the per-site (or coordinator) algorithm logic. Recv is
// invoked serially per site; different sites run concurrently.
type Handler interface {
	Recv(ctx *Ctx, from int, p wire.Payload)
}

// RunEnder is the optional Handler extension for algorithms whose local
// evaluation is defined over a set of received messages rather than one
// (dGPM's lEval, §4.1). A site's executor calls EndRun once after it
// delivered a drained run of the session's queued messages, before the
// run is retired: what EndRun sends is in flight before the messages
// that caused it stop being so.
type RunEnder interface {
	EndRun(ctx *Ctx)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx *Ctx, from int, p wire.Payload)

// Recv implements Handler.
func (f HandlerFunc) Recv(ctx *Ctx, from int, p wire.Payload) { f(ctx, from, p) }

// Stats aggregates network accounting for one session.
type Stats struct {
	DataBytes    int64 // payload kinds with Kind.IsData()
	ControlBytes int64
	ResultBytes  int64 // KindMatches traffic
	DataMsgs     int64
	ControlMsgs  int64
	ResultMsgs   int64
	PushBytes    int64         // KindPush share of DataBytes (dGPM §4.2 push)
	PushMsgs     int64         // KindPush share of DataMsgs
	Wall         time.Duration // set by the driver
	MaxSiteBusy  time.Duration // longest per-site cumulative Recv time
	Rounds       int64         // algorithm-defined (communication rounds)
	// WireBytes is the measured transport-level traffic of the session —
	// real socket bytes including frame headers on the TCP backend, 0 on
	// the in-process backend (nothing touches a wire there). Payload
	// byte counts above are exact on both backends.
	WireBytes int64
}

// TotalMsgs reports all messages exchanged.
func (s *Stats) TotalMsgs() int64 { return s.DataMsgs + s.ControlMsgs + s.ResultMsgs }

// Minus returns the counter-wise difference s - o: the traffic of one
// window of a long-lived session (snapshot before, snapshot after,
// subtract). Wall and MaxSiteBusy are copied from s, not subtracted —
// the caller times its own window.
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		DataBytes:    s.DataBytes - o.DataBytes,
		ControlBytes: s.ControlBytes - o.ControlBytes,
		ResultBytes:  s.ResultBytes - o.ResultBytes,
		DataMsgs:     s.DataMsgs - o.DataMsgs,
		ControlMsgs:  s.ControlMsgs - o.ControlMsgs,
		ResultMsgs:   s.ResultMsgs - o.ResultMsgs,
		PushBytes:    s.PushBytes - o.PushBytes,
		PushMsgs:     s.PushMsgs - o.PushMsgs,
		Rounds:       s.Rounds - o.Rounds,
		WireBytes:    s.WireBytes - o.WireBytes,
		Wall:         s.Wall,
		MaxSiteBusy:  s.MaxSiteBusy,
	}
}

func (s *Stats) String() string {
	return fmt.Sprintf("Stats(data=%dB/%dmsg, push=%dB/%dmsg, ctrl=%dB, result=%dB, rounds=%d, wall=%v)",
		s.DataBytes, s.DataMsgs, s.PushBytes, s.PushMsgs, s.ControlBytes, s.ResultBytes, s.Rounds, s.Wall)
}

type envelope struct {
	qid  uint64
	from int
	data []byte
}

// Queue is the runtime's one unbounded FIFO with one consumer: a site's
// or the coordinator's mailbox here, a connection's outbound queue in
// tcpnet. Producers never block, which rules out the send-deadlock of
// bounded channels under all-to-all bursts (and hub routing's circular
// write-deadlock). The consumer takes the whole queue per wakeup
// (Drain), so under load one wakeup and one lock round-trip cover a run
// of entries, while an idle consumer still sees each entry at once.
type Queue[T any] struct {
	mu       sync.Mutex
	cond     sync.Cond
	queue    []T
	closed   bool
	maxSpare int
}

// mailboxSpare is the spare cap of a site's or the coordinator's
// mailbox, in entries: one of many per process, so a burst's backing
// array is dropped instead of staying pinned to an idle consumer.
const mailboxSpare = 4096

// NewQueue returns an empty, open queue whose consumer recycles a
// drained buffer of at most maxSpare entries (Drain).
func NewQueue[T any](maxSpare int) *Queue[T] {
	q := &Queue[T]{maxSpare: maxSpare}
	q.cond.L = &q.mu
	return q
}

// Put appends e; after Close it is dropped.
func (q *Queue[T]) Put(e T) {
	q.mu.Lock()
	if !q.closed {
		q.queue = append(q.queue, e)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// PutAll appends a run of entries under one lock hold and wakes the
// consumer once: fill appends the run to the queue's tail and returns
// it. fill runs under the queue's lock, so it must do nothing but
// append. After Close the run is dropped and fill is not called.
func (q *Queue[T]) PutAll(fill func(tail []T) []T) {
	q.mu.Lock()
	if !q.closed {
		q.queue = fill(q.queue)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// putRun queues msgs on box as one run of session qid's envelopes.
func putRun(box *Queue[envelope], qid uint64, msgs []wire.BatchMsg) {
	box.PutAll(func(q []envelope) []envelope {
		for _, m := range msgs {
			q = append(q, envelope{qid: qid, from: int(m.From), data: m.Data})
		}
		return q
	})
}

// Drain blocks for the next chunk and returns the entire queue in FIFO
// order; ok=false after Close and drain. spare is the caller's previous
// chunk, fully consumed: it is cleared — releasing what it references —
// and becomes the next queue, so a steady flow allocates nothing. A
// spare above the queue's cap is dropped instead.
func (q *Queue[T]) Drain(spare []T) (chunk []T, ok bool) {
	clear(spare)
	if cap(spare) > q.maxSpare {
		spare = nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.queue) == 0 && !q.closed {
		q.cond.Wait()
	}
	chunk, q.queue = q.queue, spare[:0]
	return chunk, len(chunk) > 0
}

// Close stops accepting entries; what was queued is still drained.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports the entries queued and not yet drained.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

// serve is the actor loop of a mailbox's one consumer — a site or the
// coordinator: take the whole queue per wakeup and hand run each run of
// consecutive same-session envelopes, in arrival order, until the
// mailbox is closed and empty. A run is the unit the consumer looks its
// session up for, times, and retires at once.
func serve(box *Queue[envelope], run func([]envelope)) {
	var chunk []envelope
	for {
		var ok bool
		if chunk, ok = box.Drain(chunk); !ok {
			return
		}
		for i := 0; i < len(chunk); {
			j := i + 1
			for j < len(chunk) && chunk[j].qid == chunk[i].qid {
				j++
			}
			run(chunk[i:j])
			i = j
		}
	}
}

// Cluster is the driver side of a deployment: it runs the coordinator
// actor, tracks sessions, and reaches the n worker sites through its
// Transport. Create it once per deployment, run queries as Sessions, and
// Shutdown when done.
type Cluster struct {
	n        int
	tr       Transport
	coordBox *Queue[envelope]
	wg       sync.WaitGroup

	mu       sync.RWMutex
	sessions map[uint64]*Session
	nextQID  uint64
	closed   bool
	// dead is set when the transport reports a deployment-fatal failure
	// (Fail(0)): new sessions are born closed — their waiters observe
	// deadErr — instead of hanging on a transport that drops every send.
	dead    bool
	deadErr error
	// suspended is the recoverable sibling of dead: a Fail(0) whose cause
	// wraps ErrSiteLost fails the in-flight sessions but leaves the
	// cluster resumable — new sessions are born failed with suspendErr
	// until Resume, which the deployment calls after re-hosting the lost
	// fragments.
	suspended  bool
	suspendErr error
}

// NewWithTransport wires a Cluster onto an unbound Transport and starts
// the coordinator actor. The transport's site count fixes n.
func NewWithTransport(tr Transport) *Cluster {
	c := &Cluster{
		n:        tr.NumSites(),
		tr:       tr,
		sessions: make(map[uint64]*Session),
		coordBox: NewQueue[envelope](mailboxSpare),
	}
	c.wg.Add(1)
	go c.coordLoop()
	tr.Bind(c)
	return c
}

// New creates a cluster of n in-process sites with no resident
// fragments — the handler-session substrate tests and custom protocols
// use. Deployments with fragments use NewLocal.
func New(n int) *Cluster {
	return NewWithTransport(NewInProc(n, nil))
}

// NumSites reports the number of worker sites (excluding the coordinator).
func (c *Cluster) NumSites() int { return c.n }

// Transport returns the cluster's transport backend.
func (c *Cluster) Transport() Transport { return c.tr }

// ActiveSessions counts the registered sessions of the given kind —
// introspection for tests and operators (e.g. how many standing queries
// a deployment maintains alongside its query traffic).
func (c *Cluster) ActiveSessions(kind SessionKind) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, s := range c.sessions {
		if s.kind == kind {
			n++
		}
	}
	return n
}

// SessionKind labels what a session multiplexed on the cluster is for.
// Query sessions are one-shot protocol runs; maintenance sessions are
// long-lived — standing-query refinement and fragment-update
// distribution reuse one session across many quiesce windows.
type SessionKind uint8

const (
	// SessionQuery is a one-query protocol session (the default).
	SessionQuery SessionKind = iota
	// SessionMaintenance is a long-lived update/standing-query session.
	SessionMaintenance
)

func (k SessionKind) String() string {
	if k == SessionMaintenance {
		return "maintenance"
	}
	return "query"
}

// newSession allocates and registers a session shell. ok=false on a
// shut-down cluster: the returned session is already closed — sends are
// dropped and WaitQuiesce reports ErrClosed.
func (c *Cluster) newSession(kind SessionKind, coord Handler) (*Session, bool) {
	s := &Session{
		c:           c,
		kind:        kind,
		coord:       coord,
		quiesce:     make(chan struct{}, 1),
		abort:       make(chan struct{}),
		busy:        make([]time.Duration, c.n+1),
		outstanding: make([]int64, c.n),
		seen:        make([]uint64, c.n),
	}
	s.coordCtx = &Ctx{
		self: Coordinator,
		n:    c.n,
		out:  &s.coordOut,
		// Rounds the coordinator handler records during a Recv are
		// scratch-buffered so the trace attributes them (and the Recv's
		// busy time) to the coordinator's current round — the exact
		// analogue of the site path in SiteHost. Only the coordinator
		// actor goroutine invokes this.
		addRounds: func(n int64) {
			s.statMu.Lock()
			s.stats.Rounds += n
			s.statMu.Unlock()
			s.coordRounds += n
		},
	}
	c.mu.Lock()
	if c.closed || c.dead || c.suspended {
		err := c.deadErr
		if err == nil {
			err = c.suspendErr
		}
		c.mu.Unlock()
		if err != nil {
			s.fail(err)
		} else {
			s.drop()
		}
		return s, false
	}
	c.nextQID++
	s.qid = c.nextQID
	c.sessions[s.qid] = s
	c.mu.Unlock()
	return s, true
}

// OpenSession registers a session whose site handlers are instantiated
// from spec — by the in-process registry or by remote daemons, depending
// on the backend. Handlers are installed (or their installation frames
// are ordered ahead on every connection) before the session's first
// message can be sent, so no delivery races registration. A synchronous
// resolution failure returns an error; remote failures surface through
// WaitQuiesce. On a shut-down cluster the returned session is already
// closed: sends are dropped and WaitQuiesce reports ErrClosed.
func (c *Cluster) OpenSession(kind SessionKind, spec SessionSpec, coord Handler) (*Session, error) {
	s, ok := c.newSession(kind, coord)
	if !ok {
		return s, nil
	}
	if spec.TraceID != 0 {
		// Installed before Open: no message can flow until Open returns,
		// so every route/Recv observes the recorder.
		s.traceRec = obs.NewSpanRecorder(spec.TraceID)
	}
	if err := c.tr.Open(s.qid, kind, spec); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// NewSession registers a query-kind direct-handler session; see
// NewSessionKind.
func (c *Cluster) NewSession(sites []Handler, coord Handler) *Session {
	return c.NewSessionKind(SessionQuery, sites, coord)
}

// NewSessionKind registers one caller-built handler per site plus the
// coordinator handler under a fresh query ID and returns the session.
// Direct handler installation requires an in-process transport
// (HandlerOpener); networked deployments open sessions from a
// SessionSpec instead. On a shut-down cluster the returned session is
// already closed: sends are dropped and WaitQuiesce reports ErrClosed.
func (c *Cluster) NewSessionKind(kind SessionKind, sites []Handler, coord Handler) *Session {
	if len(sites) != c.n {
		panic(fmt.Sprintf("cluster: %d handlers for %d sites", len(sites), c.n))
	}
	ho, ok := c.tr.(HandlerOpener)
	if !ok {
		panic("cluster: direct handler sessions require an in-process transport; open a SessionSpec session instead")
	}
	s, live := c.newSession(kind, coord)
	if !live {
		return s
	}
	if err := ho.OpenHandlers(s.qid, sites); err != nil {
		panic(err) // in-process installation cannot fail on a live host
	}
	return s
}

// coordLoop is the coordinator actor: it serially processes every
// session's coordinator-addressed messages, mirroring a worker site's
// event loop (one machine, one event loop) — the mailbox drained whole,
// each same-session run timed and retired once.
func (c *Cluster) coordLoop() {
	defer c.wg.Done()
	serve(c.coordBox, c.coordRun)
}

func (c *Cluster) coordRun(run []envelope) {
	c.mu.RLock()
	s := c.sessions[run[0].qid]
	c.mu.RUnlock()
	if s == nil {
		return
	}
	if s.dropped.Load() {
		s.doneN(len(run))
		return
	}
	s.coordRounds = 0
	bytes := 0
	start := time.Now()
	for _, env := range run {
		p, err := wire.Decode(env.data)
		if err != nil {
			panic(fmt.Sprintf("cluster: coordinator received undecodable message from %d: %v", env.from, err))
		}
		s.coord.Recv(s.coordCtx, env.from, p)
		bytes += len(env.data)
	}
	el := time.Since(start)
	// The run's output is routed as one run, before the run retires.
	if len(s.coordOut) > 0 {
		if !s.dropped.Load() {
			s.route(s.coordOut)
		}
		s.coordOut = resetOutbox(s.coordOut)
	}
	s.statMu.Lock()
	s.busy[c.n] += el
	s.statMu.Unlock()
	if s.traceRec != nil {
		s.traceRec.RecordIn(obs.CoordinatorSite, len(run), bytes, el, s.coordRounds)
	}
	s.doneN(len(run))
}

// resetOutbox empties a routed outbox for the next run, releasing the
// payloads it references; a burst's buffer is dropped rather than kept.
func resetOutbox(out []wire.BatchMsg) []wire.BatchMsg {
	if cap(out) > mailboxSpare {
		return nil
	}
	clear(out)
	return out[:0]
}

// --- Events (transport upcalls) ---

// SiteSent implements Events: account a run of site-originated
// messages and route it — to the coordinator actor or back out through
// the transport — with one session lookup.
func (c *Cluster) SiteSent(qid uint64, msgs []wire.BatchMsg) {
	c.mu.RLock()
	s := c.sessions[qid]
	c.mu.RUnlock()
	if s == nil || s.dropped.Load() {
		return // abandoned session: suppress, exactly like Inject
	}
	s.route(msgs)
}

// Retired implements Events. cum is the site's cumulative count of the
// session's retired messages, so what a retirement retires is what it
// adds to the count already seen from that site, clamped to the site's
// outstanding ledger (messages routed to it and not yet retired): a
// duplicated retirement retires nothing, and a forged count retires at
// most what was routed to that site — neither can drive the in-flight
// counter below the true count and certify termination early. A
// retirement that retires nothing is ignored whole, its busy time and
// rounds included. The per-site count is well defined because a site
// loss fails every open session, so no session spans two hosts of one
// site.
func (c *Cluster) Retired(qid uint64, site int, busy time.Duration, rounds int64, cum uint64) {
	c.mu.RLock()
	s := c.sessions[qid]
	c.mu.RUnlock()
	if s == nil || site < 0 || site >= c.n {
		return
	}
	s.statMu.Lock()
	seen := s.seen[site]
	if cum <= seen || s.outstanding[site] == 0 {
		s.statMu.Unlock()
		return
	}
	n := int64(min(cum-seen, uint64(s.outstanding[site])))
	s.seen[site] += uint64(n)
	s.outstanding[site] -= n
	s.busy[site] += busy
	s.stats.Rounds += rounds
	s.statMu.Unlock()
	s.doneN(int(n))
}

// Fail implements Events: abort one session (or, with qid 0, all of
// them) with err; WaitQuiesce observes err. A deployment-fatal failure
// also poisons the cluster — the transport is gone, so sessions opened
// afterwards fail immediately instead of waiting on dropped sends — with
// one exception: a cause wrapping ErrSiteLost only suspends the cluster,
// leaving it resumable once the lost sites have been re-hosted.
func (c *Cluster) Fail(qid uint64, err error) {
	var failed []*Session
	if qid == 0 {
		c.mu.Lock()
		if errors.Is(err, ErrSiteLost) {
			if !c.dead && !c.suspended {
				c.suspended = true
				c.suspendErr = err
			}
		} else if !c.dead {
			c.dead = true
			c.deadErr = err
		}
		for _, s := range c.sessions {
			failed = append(failed, s)
		}
		c.mu.Unlock()
	} else {
		c.mu.RLock()
		if s := c.sessions[qid]; s != nil {
			failed = append(failed, s)
		}
		c.mu.RUnlock()
	}
	for _, s := range failed {
		s.fail(err)
	}
}

// Resume clears a site-loss suspension: new sessions may be opened
// again. The deployment calls it after the transport re-hosted the lost
// fragments (Recoverer.Recover). Sessions failed by the loss stay failed
// — their owners retry. A permanent (non-site-lost) failure is not
// resumable; Resume on a dead or closed cluster is a no-op in effect
// because newSession checks those flags first.
func (c *Cluster) Resume() {
	c.mu.Lock()
	c.suspended = false
	c.suspendErr = nil
	c.mu.Unlock()
}

// Suspended reports whether the cluster is in the site-loss suspended
// state (failed over but not yet resumed), along with the cause.
func (c *Cluster) Suspended() (bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.suspended, c.suspendErr
}

// Shutdown closes every active session, tears the transport down and
// stops the coordinator actor. Idempotent.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	active := make([]*Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		active = append(active, s)
	}
	c.mu.Unlock()
	for _, s := range active {
		s.Close()
	}
	c.tr.Shutdown()
	c.coordBox.Close()
	c.wg.Wait()
}

// Session is one query's view of the cluster: its coordinator handler,
// its stats, and its quiescence state. Sessions are created by
// Cluster.OpenSession (spec-based, any backend) or Cluster.NewSession
// (direct handlers, in-process only) and must be Closed when the query
// completes or is abandoned; Close unregisters the handlers and discards
// the session's remaining traffic.
type Session struct {
	c        *Cluster
	qid      uint64
	kind     SessionKind
	coord    Handler
	coordCtx *Ctx

	inflight  atomic.Int64
	quiesce   chan struct{} // receives a token each time inflight hits 0
	abort     chan struct{} // closed when the session is dropped
	dropped   atomic.Bool
	failErr   error // set (at most once) before dropped, read after
	closeOnce sync.Once

	statMu sync.Mutex
	stats  Stats
	busy   []time.Duration
	// outstanding[i] counts messages routed to worker site i and not yet
	// retired, seen[i] the site's cumulative retirement count the driver
	// has accepted — the per-site ledger Retired clamps against so a
	// duplicated or forged retirement cannot falsely certify termination.
	outstanding []int64
	seen        []uint64

	// traceRec records the driver-side (coordinator) spans of a traced
	// session; nil means tracing off. Set once in OpenSession before any
	// message flows. coordRounds is the coordinator actor's per-Recv
	// rounds scratch and coordOut the outbox of its run in progress, both
	// touched only by coordLoop.
	traceRec    *obs.SpanRecorder
	coordRounds int64
	coordOut    []wire.BatchMsg
}

// injectPool lends Inject and Broadcast the buffer they build a run of
// the driver's own sends in: a run handed to the transport escapes, so a
// per-call slice would allocate, and drivers may inject concurrently.
var injectPool sync.Pool

// route accounts a run of encoded messages and hands it on in order:
// coordinator-bound messages to the coordinator actor, the rest to the
// transport. The run is tallied locally and added under one stats hold,
// and counted in flight with one add, before any of it is delivered.
// The split keeps the run's order: a site-bound message reaches the
// transport before a later coordinator-bound one is delivered — dMes's
// barrier relies on a site's vectors being routed before its vote.
// Shared by driver sends, coordinator runs and site upcalls; msgs is
// only read.
func (s *Session) route(msgs []wire.BatchMsg) {
	var data, ctrl, result, push, dataN, ctrlN, resultN, pushN int64
	for _, m := range msgs {
		if m.To != Coordinator && (m.To < 0 || int(m.To) >= s.c.n) {
			panic(fmt.Sprintf("cluster: invalid site id %d", m.To))
		}
		n := int64(len(m.Data))
		switch k := wire.Kind(m.Data[0]); {
		case k == wire.KindMatches:
			result += n
			resultN++
		case k.IsData():
			data += n
			dataN++
			if k == wire.KindPush {
				push += n
				pushN++
			}
		default:
			ctrl += n
			ctrlN++
		}
	}
	s.statMu.Lock()
	s.stats.DataBytes += data
	s.stats.ControlBytes += ctrl
	s.stats.ResultBytes += result
	s.stats.DataMsgs += dataN
	s.stats.ControlMsgs += ctrlN
	s.stats.ResultMsgs += resultN
	s.stats.PushBytes += push
	s.stats.PushMsgs += pushN
	for _, m := range msgs {
		if m.To != Coordinator {
			s.outstanding[m.To]++
		}
	}
	s.statMu.Unlock()
	if s.traceRec != nil {
		for _, m := range msgs {
			if m.From == Coordinator {
				s.traceRec.RecordOut(obs.CoordinatorSite, len(m.Data))
			}
		}
	}
	s.inflight.Add(int64(len(msgs)))
	for i := 0; i < len(msgs); {
		coord := msgs[i].To == Coordinator
		j := i + 1
		for j < len(msgs) && (msgs[j].To == Coordinator) == coord {
			j++
		}
		if coord {
			putRun(s.c.coordBox, s.qid, msgs[i:j])
		} else {
			s.c.tr.Send(s.qid, msgs[i:j])
		}
		i = j
	}
}

// doneN retires n in-flight messages at once (a drained run) and
// signals quiescence at zero. A single Add(-n) reaches zero exactly
// when n individual decrements would have, so the termination
// certificate is unchanged.
func (s *Session) doneN(n int) {
	if s.inflight.Add(-int64(n)) == 0 {
		select {
		case s.quiesce <- struct{}{}:
		default:
		}
	}
}

// Inject sends p to site id on behalf of the driver (appears to come from
// the coordinator).
func (s *Session) Inject(id int, p wire.Payload) { s.inject(wire.Encode(p), id, id+1) }

// Broadcast injects p to every worker site: encoded once, the n
// messages share the read-only bytes and are routed as one run.
func (s *Session) Broadcast(p wire.Payload) { s.inject(wire.Encode(p), 0, s.c.n) }

// inject routes data from the coordinator to sites lo..hi-1 as one run.
func (s *Session) inject(data []byte, lo, hi int) {
	if s.dropped.Load() {
		return
	}
	bp, _ := injectPool.Get().(*[]wire.BatchMsg)
	if bp == nil {
		bp = new([]wire.BatchMsg)
	}
	run := *bp
	for to := lo; to < hi; to++ {
		run = append(run, wire.BatchMsg{From: Coordinator, To: int32(to), Data: data})
	}
	s.route(run)
	*bp = resetOutbox(run)
	injectPool.Put(bp)
}

// WaitQuiesce blocks until every one of the session's messages has been
// delivered and processed and none of its handlers is running, the
// context is done, or the session is closed (ErrClosed, or the
// transport failure that killed it). Other sessions' traffic does not
// affect the wait.
func (s *Session) WaitQuiesce(ctx context.Context) error {
	for {
		if s.dropped.Load() {
			if s.failErr != nil {
				return s.failErr
			}
			return ErrClosed
		}
		// Context before quiescence: a cancelled query must fail
		// deterministically even when the protocol already finished.
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.abort:
			if s.failErr != nil {
				return s.failErr
			}
			return ErrClosed
		case <-s.quiesce:
		}
	}
}

// Kind reports the session's kind.
func (s *Session) Kind() SessionKind { return s.kind }

// ID reports the session's cluster-wide id (the qid of its wire
// frames) — what transport-level tests and logs correlate on.
func (s *Session) ID() uint64 { return s.qid }

// AddRounds lets algorithms record communication rounds.
func (s *Session) AddRounds(n int64) {
	s.statMu.Lock()
	s.stats.Rounds += n
	s.statMu.Unlock()
	if s.traceRec != nil {
		s.traceRec.AddRounds(obs.CoordinatorSite, n)
	}
}

// Trace assembles a traced session's span tree: the spans every site
// host recorded plus the driver's own coordinator spans. Call after
// Close — remote hosts ship their spans when they process the close.
// Returns nil for untraced sessions. Complete is false when a host's
// spans could not be collected (a connection lost before its spans
// arrived).
func (s *Session) Trace(ctx context.Context) (*obs.QueryTrace, error) {
	if s.traceRec == nil {
		return nil, nil
	}
	qt := &obs.QueryTrace{TraceID: s.traceRec.ID(), Complete: true}
	if tt, ok := s.c.tr.(Tracer); ok {
		spans, complete, err := tt.Trace(ctx, s.qid)
		if err != nil {
			return nil, err
		}
		qt.Sites = append(qt.Sites, spans...)
		qt.Complete = complete
	} else {
		qt.Complete = false
	}
	qt.Sites = append(qt.Sites, s.traceRec.Snapshot()...)
	sort.Slice(qt.Sites, func(i, j int) bool { return qt.Sites[i].Site < qt.Sites[j].Site })
	return qt, nil
}

// Stats snapshots the session's accounting, including the measured
// transport bytes. Call at quiescence.
func (s *Session) Stats() Stats {
	wb := s.c.tr.WireBytes(s.qid)
	s.statMu.Lock()
	defer s.statMu.Unlock()
	st := s.stats
	st.WireBytes = wb
	for _, b := range s.busy {
		if b > st.MaxSiteBusy {
			st.MaxSiteBusy = b
		}
	}
	return st
}

// drop marks the session abandoned: subsequent sends are suppressed,
// queued messages are discarded undelivered, and waiters are released.
func (s *Session) drop() {
	s.closeOnce.Do(func() {
		s.dropped.Store(true)
		close(s.abort)
	})
}

// fail is drop with a cause: WaitQuiesce reports err instead of
// ErrClosed. The error write is ordered before dropped.Store, so any
// reader observing the flag sees the cause.
func (s *Session) fail(err error) {
	s.closeOnce.Do(func() {
		s.failErr = err
		s.dropped.Store(true)
		close(s.abort)
	})
}

// Close unregisters the session from the cluster and its transport.
// Remaining in-flight messages are discarded without being delivered; a
// handler currently mid-Recv finishes but its sends are suppressed.
// Idempotent.
func (s *Session) Close() {
	s.drop()
	s.c.mu.Lock()
	_, live := s.c.sessions[s.qid]
	delete(s.c.sessions, s.qid)
	s.c.mu.Unlock()
	// Only the call that actually unregistered the session closes it on
	// the transport: Evaluate closes explicitly (span shipment rides the
	// CLOSE) and again via defer, and the duplicate must not cost a
	// second round of CLOSE frames.
	if live {
		s.c.tr.Close(s.qid)
	}
}

// Ctx is the per-site sending API passed to handlers. All traffic stays
// within the handler's session. A send encodes the payload and appends
// it to the outbox of the run in progress, which the executor routes as
// one run when the run ends: handlers send only from Recv and EndRun.
type Ctx struct {
	self int
	n    int
	out  *[]wire.BatchMsg
	// trace, when non-nil, attributes each send to the sending site's
	// current round (the coordinator's sends are attributed at routing).
	trace     *obs.SpanRecorder
	addRounds func(n int64)
}

// Self reports the handler's site ID (Coordinator for the coordinator).
func (x *Ctx) Self() int { return x.self }

// NumSites reports the number of worker sites.
func (x *Ctx) NumSites() int { return x.n }

// Send delivers p to site `to` (use Coordinator for Sc).
func (x *Ctx) Send(to int, p wire.Payload) {
	if to != Coordinator && (to < 0 || to >= x.n) {
		panic(fmt.Sprintf("cluster: invalid site id %d", to))
	}
	x.put(to, wire.Encode(p))
}

// Broadcast sends p to every worker site (coordinator use): encoded
// once, the n messages share the read-only bytes.
func (x *Ctx) Broadcast(p wire.Payload) {
	data := wire.Encode(p)
	for i := 0; i < x.n; i++ {
		x.put(i, data)
	}
}

func (x *Ctx) put(to int, data []byte) {
	if x.trace != nil {
		x.trace.RecordOut(x.self, len(data))
	}
	*x.out = append(*x.out, wire.BatchMsg{From: int32(x.self), To: int32(to), Data: data})
}

// AddRounds records algorithm-defined communication rounds.
func (x *Ctx) AddRounds(n int64) { x.addRounds(n) }
