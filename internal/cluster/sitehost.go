package cluster

// SiteHost is the actor runtime for worker sites, shared by both
// transport backends: the in-process network runs one host with all n
// sites in the driver's process, a dgsd daemon runs one host with its
// shard of sites. Each hosted site is a serial actor — an unbounded
// mailbox drained, a whole queue at a time, by one goroutine — so a
// handler never races itself, while different sites run concurrently.
// The host knows nothing about sockets or statistics; it reports every
// outbound message and every retired run to its SiteSink, and the
// backend decides whether that means a function call (in-process) or a
// wire frame (TCP).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// SiteSink receives a SiteHost's outbound effects. Implementations must
// be safe for concurrent use (each site goroutine calls in).
type SiteSink interface {
	// ForwardSend routes a message a hosted site's handler emitted. to
	// may be Coordinator, a site on this host, or a site elsewhere —
	// routing is the sink's problem.
	ForwardSend(qid uint64, from, to int, data []byte)
	// Retire reports that the site finished processing a run of
	// delivered messages of one session, with the handler's busy time and
	// recorded rounds over the run; cum is the site's cumulative count of
	// the session's retired messages, the run included. Every ForwardSend
	// the run caused precedes it.
	Retire(qid uint64, site int, busy time.Duration, rounds int64, cum uint64)
	// Fatal reports an unrecoverable protocol error (an undecodable
	// message reached a site). The in-process sink panics — exactly the
	// old behavior — while a daemon reports it to the driver and resets.
	Fatal(err error)
}

type siteState struct {
	id     int // global site ID
	box    *Queue[envelope]
	rounds int64 // scratch: rounds recorded by the Recv in progress
}

type hostSession struct {
	sites map[int]*siteSession // by global site ID
	trace *obs.SpanRecorder    // nil unless the session is traced
	// closed is set by CloseSession, so that a site in the middle of one
	// of the session's runs stops delivering it.
	closed atomic.Bool
}

// siteSession is one hosted site's share of a session.
type siteSession struct {
	h   Handler
	ctx *Ctx
	// retired is the site's cumulative count of the session's retired
	// messages — what Retire reports. Only the site's goroutine touches it.
	retired uint64
}

// SiteHost hosts a set of worker sites identified by their global IDs.
type SiteHost struct {
	total  int // sites in the whole deployment
	sites  map[int]*siteState
	frags  map[int]*partition.Fragment // may be empty (protocol tests)
	assign []int32
	net    Network // link emulation; zero for real networks
	sink   SiteSink

	mu       sync.RWMutex // guards sessions, sites, frags, closed
	sessions map[uint64]*hostSession
	closed   bool

	// traces holds the recorders of traced sessions past their close,
	// until TakeTrace collects them — a daemon ships spans after it
	// processed the CLOSE frame, the in-process backend after
	// Session.Close already unregistered the session.
	traceMu sync.Mutex
	traces  map[uint64]*obs.SpanRecorder

	wg sync.WaitGroup
}

// NewSiteHost starts the site goroutines for the given global site IDs.
// frags maps a hosted ID to its resident fragment (nil entries and a nil
// map are allowed — spec factories then receive a nil fragment). net is
// the emulated link model; pass the zero Network when a real network
// provides the latency.
func NewSiteHost(total int, ids []int, frags map[int]*partition.Fragment, assign []int32, net Network, sink SiteSink) *SiteHost {
	h := &SiteHost{
		total:    total,
		sites:    make(map[int]*siteState, len(ids)),
		frags:    frags,
		assign:   assign,
		net:      net,
		sink:     sink,
		sessions: make(map[uint64]*hostSession),
		traces:   make(map[uint64]*obs.SpanRecorder),
	}
	for _, id := range ids {
		st := &siteState{id: id, box: NewQueue[envelope]()}
		h.sites[id] = st
		h.wg.Add(1)
		go h.siteLoop(st)
	}
	return h
}

// HostedIDs reports the hosted global site IDs, in no particular order.
func (h *SiteHost) HostedIDs() []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ids := make([]int, 0, len(h.sites))
	for id := range h.sites {
		ids = append(ids, id)
	}
	return ids
}

// AddSites starts site goroutines for newly assigned global IDs with
// their resident fragments — how a surviving daemon absorbs a lost
// peer's sites on re-deployment. An ID already hosted only has its
// fragment replaced. No new goroutines start on a shut-down host.
func (h *SiteHost) AddSites(ids []int, frags map[int]*partition.Fragment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frags == nil {
		h.frags = make(map[int]*partition.Fragment, len(ids))
	}
	for _, id := range ids {
		if f, ok := frags[id]; ok {
			h.frags[id] = f
		}
		if _, ok := h.sites[id]; ok || h.closed {
			continue
		}
		st := &siteState{id: id, box: NewQueue[envelope]()}
		h.sites[id] = st
		h.wg.Add(1)
		go h.siteLoop(st)
	}
}

// ReplaceFragments swaps the resident fragments of already-hosted sites
// — the full re-deployment mode, where the driver's committed state
// replaces whatever a survivor holds after an interrupted update batch.
// Sessions opened after the call see the replacements; live sessions
// keep the fragments they were built on.
func (h *SiteHost) ReplaceFragments(frags map[int]*partition.Fragment) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frags == nil {
		h.frags = make(map[int]*partition.Fragment, len(frags))
	}
	for id, f := range frags {
		h.frags[id] = f
	}
}

// Open instantiates session qid on every hosted site from spec, via the
// algorithm registry.
func (h *SiteHost) Open(qid uint64, kind SessionKind, spec SessionSpec) error {
	factory, ok := ResolveAlgorithm(spec.Algo)
	if !ok {
		return fmt.Errorf("cluster: unknown algorithm %q", spec.Algo)
	}
	type siteFrag struct {
		id   int
		frag *partition.Fragment
	}
	h.mu.RLock()
	list := make([]siteFrag, 0, len(h.sites))
	for id := range h.sites {
		list = append(list, siteFrag{id, h.frags[id]})
	}
	assign := h.assign
	h.mu.RUnlock()
	handlers := make(map[int]Handler, len(list))
	for _, sf := range list {
		hd, err := factory(spec, sf.frag, assign)
		if err != nil {
			return fmt.Errorf("cluster: algorithm %q site %d: %w", spec.Algo, sf.id, err)
		}
		handlers[sf.id] = hd
	}
	return h.install(qid, handlers, spec.TraceID)
}

// OpenHandlers installs caller-built handlers, keyed by global site ID.
// Only meaningful when caller and host share a process.
func (h *SiteHost) OpenHandlers(qid uint64, handlers map[int]Handler) error {
	return h.install(qid, handlers, 0)
}

func (h *SiteHost) install(qid uint64, handlers map[int]Handler, traceID uint64) error {
	hs := &hostSession{sites: make(map[int]*siteSession, len(handlers))}
	if traceID != 0 {
		hs.trace = obs.NewSpanRecorder(traceID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, hd := range handlers {
		st, ok := h.sites[id]
		if !ok {
			return fmt.Errorf("cluster: handler for site %d which is not hosted here", id)
		}
		hs.sites[id] = &siteSession{h: hd, ctx: h.siteCtx(qid, st, hs.trace)}
	}
	if h.closed {
		// Shut-down host: accept the registration as a no-op; queued
		// traffic is already being discarded.
		return nil
	}
	h.sessions[qid] = hs
	if hs.trace != nil {
		h.traceMu.Lock()
		h.traces[qid] = hs.trace
		h.traceMu.Unlock()
	}
	return nil
}

// siteCtx builds the per-(session, site) handler context. The rounds
// accumulator lives in siteState and is read back by the site loop after
// each run — safe because one goroutine owns the site. For traced
// sessions the context also attributes each send to the site's current
// round: sends happen inside Recv on the site's own goroutine, so the
// round index is stable for the duration.
func (h *SiteHost) siteCtx(qid uint64, st *siteState, trace *obs.SpanRecorder) *Ctx {
	return &Ctx{
		self: st.id,
		n:    h.total,
		send: func(to int, p wire.Payload) {
			data := wire.Encode(p)
			if trace != nil {
				trace.RecordOut(st.id, len(data))
			}
			h.sink.ForwardSend(qid, st.id, to, data)
		},
		addRounds: func(n int64) { st.rounds += n },
	}
}

// CloseSession discards session qid's handlers; queued envelopes for it
// are dropped when dequeued, the undelivered rest of a run in progress
// included. A traced session's recorder survives until TakeTrace
// collects it.
func (h *SiteHost) CloseSession(qid uint64) {
	h.mu.Lock()
	if hs := h.sessions[qid]; hs != nil {
		hs.closed.Store(true)
		delete(h.sessions, qid)
	}
	h.mu.Unlock()
}

// TakeTrace removes and returns the spans a traced session's sites
// recorded; traced is false for untraced (or already-collected, or
// unknown) sessions. A traced session whose sites saw no traffic
// reports traced=true with empty spans — a daemon still owes the
// driver a TRACE frame for it. Call after CloseSession: a straggler
// Recv racing the close may still be recording into the session's
// accumulator.
func (h *SiteHost) TakeTrace(qid uint64) (spans []obs.SiteTrace, traced bool) {
	h.traceMu.Lock()
	rec := h.traces[qid]
	delete(h.traces, qid)
	h.traceMu.Unlock()
	if rec == nil {
		return nil, false
	}
	return rec.Snapshot(), true
}

// Enqueue delivers one encoded payload to hosted site `to`. The message
// is timestamped for link emulation when the host's Network is non-zero.
func (h *SiteHost) Enqueue(qid uint64, from, to int, data []byte) {
	h.mu.RLock()
	st, ok := h.sites[to]
	h.mu.RUnlock()
	if !ok {
		h.sink.Fatal(fmt.Errorf("cluster: message for site %d which is not hosted here", to))
		return
	}
	env := envelope{qid: qid, from: from, data: data}
	if h.net.Latency > 0 || h.net.Bandwidth > 0 || h.net.PerMsg > 0 {
		env.sent = time.Now()
	}
	st.box.Put(env)
}

// siteLoop is a hosted site's executor: the mailbox's whole queue per
// wakeup, each same-session run handed to run in arrival order.
func (h *SiteHost) siteLoop(st *siteState) {
	defer h.wg.Done()
	serve(st.box, func(run []envelope) { h.run(st, run) })
}

// run delivers one drained run of session envelopes to the site's
// handler, in order, then retires the run as a whole: one session
// lookup, one busy-time measurement (decoding included, emulated link
// waits excluded), one Retire carrying the site's cumulative count.
// Everything the handler emitted — during a Recv or from its RunEnder
// hook — reached the sink before the retirement does. A session closed
// mid-run gets nothing more: the rest of the run is dropped unretired,
// like a run that finds no session.
func (h *SiteHost) run(st *siteState, run []envelope) {
	qid := run[0].qid
	h.mu.RLock()
	hs := h.sessions[qid]
	h.mu.RUnlock()
	if hs == nil {
		// Session closed (or never opened here): discard. The driver
		// released the session's in-flight accounting when it closed.
		return
	}
	ss := hs.sites[st.id]
	st.rounds = 0
	var idle time.Duration
	bytes := 0
	start := time.Now()
	for _, env := range run {
		if hs.closed.Load() {
			return
		}
		idle += h.net.await(env)
		p, err := wire.Decode(env.data)
		if err != nil {
			// Fatal ends the deployment (or panics in-process): the rest of
			// the run is abandoned unretired.
			h.sink.Fatal(fmt.Errorf("cluster: site %d received undecodable message from %d: %v", st.id, env.from, err))
			return
		}
		ss.h.Recv(ss.ctx, env.from, p)
		bytes += len(env.data)
	}
	if re, ok := ss.h.(RunEnder); ok {
		re.EndRun(ss.ctx)
	}
	busy := time.Since(start) - idle
	if hs.trace != nil {
		hs.trace.RecordIn(st.id, len(run), bytes, busy, st.rounds)
	}
	ss.retired += uint64(len(run))
	h.sink.Retire(qid, st.id, busy, st.rounds, ss.retired)
}

// Shutdown stops every site goroutine and waits for them. Idempotent.
func (h *SiteHost) Shutdown() {
	h.mu.Lock()
	h.closed = true
	sites := make([]*siteState, 0, len(h.sites))
	for _, st := range h.sites {
		sites = append(sites, st)
	}
	h.mu.Unlock()
	for _, st := range sites {
		st.box.Close()
	}
	h.wg.Wait()
}

// --- the in-process backend ---

// InProc is the in-process channel network: all n sites are goroutines
// in the driver's process, messages are Go slices handed between
// mailboxes (still fully serialized through internal/wire — byte counts
// are exact), and link cost is emulated by the Network model. This is
// the original runtime of the repo, now one Transport among others, and
// the only backend that supports direct handler sessions.
type InProc struct {
	n    int
	net  Network
	host *SiteHost
	ev   Events
}

var _ Transport = (*InProc)(nil)
var _ HandlerOpener = (*InProc)(nil)
var _ FragmentSharer = (*InProc)(nil)
var _ Tracer = (*InProc)(nil)

// NewInProc creates the in-process backend hosting n sites with the
// fragments of fr resident (fr may be nil for fragment-less protocol
// sessions; spec factories then receive nil fragments).
func NewInProc(n int, fr *partition.Fragmentation, net Network) *InProc {
	t := &InProc{n: n, net: net}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	var frags map[int]*partition.Fragment
	var assign []int32
	if fr != nil {
		frags = make(map[int]*partition.Fragment, n)
		for i, f := range fr.Frags {
			frags[i] = f
		}
		assign = fr.Assign
	}
	t.host = NewSiteHost(n, ids, frags, assign, net, (*inprocSink)(t))
	return t
}

// inprocSink adapts SiteHost upcalls onto the bound Events. A separate
// type so InProc's public method set stays the Transport interface.
type inprocSink InProc

func (s *inprocSink) ForwardSend(qid uint64, from, to int, data []byte) {
	s.ev.SiteSent(qid, from, to, data)
}

func (s *inprocSink) Retire(qid uint64, site int, busy time.Duration, rounds int64, cum uint64) {
	s.ev.Retired(qid, site, busy, rounds, cum)
}

func (s *inprocSink) Fatal(err error) { panic(err) }

// NumSites implements Transport.
func (t *InProc) NumSites() int { return t.n }

// Bind implements Transport.
func (t *InProc) Bind(ev Events) { t.ev = ev }

// LinkModel exposes the emulated Network (Cluster.Network reads it).
func (t *InProc) LinkModel() Network { return t.net }

// SharesDriverFragments implements FragmentSharer: the sites mutate the
// driver's own fragment objects, so no driver-side replay is needed.
func (t *InProc) SharesDriverFragments() bool { return true }

// Open implements Transport via the algorithm registry.
func (t *InProc) Open(qid uint64, kind SessionKind, spec SessionSpec) error {
	return t.host.Open(qid, kind, spec)
}

// OpenHandlers implements HandlerOpener: sites indexed 0..n-1.
func (t *InProc) OpenHandlers(qid uint64, sites []Handler) error {
	handlers := make(map[int]Handler, len(sites))
	for i, h := range sites {
		handlers[i] = h
	}
	return t.host.OpenHandlers(qid, handlers)
}

// Rehost replaces the resident fragments of the given sites with the
// provided copies — the in-process recovery path used by fault-injecting
// wrappers (internal/transport/faultnet). Sessions opened after the call
// are built on the replacement fragments.
func (t *InProc) Rehost(frags map[int]*partition.Fragment) {
	t.host.ReplaceFragments(frags)
}

// Close implements Transport.
func (t *InProc) Close(qid uint64) { t.host.CloseSession(qid) }

// Trace implements Tracer: the host shares the driver's process, so
// collection is a synchronous map pop — always complete.
func (t *InProc) Trace(ctx context.Context, qid uint64) ([]obs.SiteTrace, bool, error) {
	spans, _ := t.host.TakeTrace(qid)
	return spans, true, nil
}

// Send implements Transport.
func (t *InProc) Send(qid uint64, from, to int, data []byte) {
	t.host.Enqueue(qid, from, to, data)
}

// Shutdown implements Transport.
func (t *InProc) Shutdown() { t.host.Shutdown() }

// WireBytes implements Transport: an in-process message never touches a
// wire, so the measured byte count is 0 by definition.
func (t *InProc) WireBytes(uint64) int64 { return 0 }

// NewLocal creates a cluster over the in-process backend with the
// fragments of fr resident at its sites — the fragment-once/serve-many
// substrate for single-process deployments and the Run wrappers.
func NewLocal(fr *partition.Fragmentation, net Network) *Cluster {
	return NewWithTransport(NewInProc(fr.NumFragments(), fr, net))
}
