package tcpnet

// The driver side: Dial connects to the dgsd daemons, performs the
// version check, ships each daemon its block of fragments, and
// returns a cluster.Transport over which the ordinary Cluster/Session
// machinery runs unchanged.
//
// Failure scoping: a connection-level error (socket error, write
// timeout, heartbeat silence) kills only that daemon's connection — its
// sites are reported lost with an error wrapping cluster.ErrSiteLost,
// which suspends the cluster instead of poisoning it, and Recover can
// re-host the lost sites on a spare or surviving daemon. Protocol
// corruption (an undecodable or out-of-spec frame) remains deployment-
// fatal: a daemon that violates the frame grammar cannot be trusted
// with a retry.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// Options tune a Dial. The zero value is ready to use.
type Options struct {
	// Spares lists standby daemon addresses that are not part of the
	// initial deployment. Recover dials them, in order, to re-host the
	// sites of a lost daemon; each spare is used at most once.
	Spares []string
	// HeartbeatInterval enables the driver→daemon liveness probe: a
	// PING every interval, with any inbound frame counting as proof of
	// life. 0 disables heartbeats — loss is then detected only through
	// socket errors.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the missed-beat threshold: a connection silent
	// for HeartbeatMisses consecutive intervals is declared lost (after
	// a dial-back probe for the diagnostic). Default 3.
	HeartbeatMisses int
	// Metrics, when non-nil, receives the transport's driver-side
	// metrics (frame counters, outbox depth, heartbeat RTT, site
	// losses). Register one transport per registry: names are unique.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 3
	}
	return o
}

// routing is the immutable connection/ownership snapshot Send reads
// lock-free. Recover swaps in a new snapshot after re-hosting lost
// sites; dead connections simply stop being referenced by owner.
type routing struct {
	conns []*conn
	owner []int // site ID -> index into conns
}

// Net is the TCP cluster.Transport: one connection per daemon, sites
// mapped onto daemons in contiguous blocks (HostedRange), failover
// re-mapping them onto spares or survivors.
type Net struct {
	n    int
	opts Options
	rt   atomic.Pointer[routing]

	ev cluster.Events

	mu          sync.Mutex
	perQID      map[uint64]int64 // measured frame bytes per session
	deployBytes int64            // handshake + fragment shipping traffic
	closing     bool
	spares      []string // spare daemon addresses not yet consumed
	onLoss      func(err error)

	recoverMu sync.Mutex // serializes Recover runs

	// Post-deployment frame counts over all connections, both
	// directions — the denominator coalescing improves.
	framesOut atomic.Int64
	framesIn  atomic.Int64

	// Pending trace collections, armed per traced Open and resolved by
	// inbound TRACE frames (or marked partial on connection loss).
	traceMu sync.Mutex
	traces  map[uint64]*traceWait

	// Optional metric instruments (nil without Options.Metrics).
	msgsOut    *obs.Counter
	siteLosses *obs.Counter
	hbRTT      *obs.Histogram

	wg sync.WaitGroup
}

var _ cluster.Transport = (*Net)(nil)
var _ cluster.Recoverer = (*Net)(nil)
var _ cluster.LossNotifier = (*Net)(nil)
var _ cluster.Tracer = (*Net)(nil)

// traceWait accumulates the TRACE frames of one traced session: one per
// live connection the OPEN went to. done closes when every expected
// frame arrived or the wait was abandoned (connection loss, shutdown) —
// whichever first; partial then records that spans are missing.
type traceWait struct {
	mu      sync.Mutex
	want    int // TRACE frames still outstanding
	partial bool
	spans   []obs.SiteTrace
	done    chan struct{}
	closed  bool
}

func (w *traceWait) finishLocked() {
	if !w.closed {
		w.closed = true
		close(w.done)
	}
}

// deliver folds one daemon's spans in; the wait resolves when the last
// expected frame arrives.
func (w *traceWait) deliver(spans []obs.SiteTrace) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.spans = append(w.spans, spans...)
	if w.want--; w.want <= 0 {
		w.finishLocked()
	}
}

// abandon resolves the wait early with whatever arrived, marking the
// trace partial.
func (w *traceWait) abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = true
	w.finishLocked()
}

type conn struct {
	t    *Net
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  *cluster.Queue[outEntry]

	dead     atomic.Bool  // set once by loseConn
	lastIn   atomic.Int64 // unix nanos of the last inbound frame
	pingSeq  atomic.Uint64
	pingAt   atomic.Int64 // unix nanos of the last PING enqueue; 0 when answered
	stopHB   chan struct{}
	stopOnce sync.Once

	depMu      sync.Mutex
	deployedCh chan error // armed while a REDEPLOY awaits its DEPLOYED
}

func (cn *conn) stop() { cn.stopOnce.Do(func() { close(cn.stopHB) }) }

// armDeployed registers a one-shot channel for the connection's next
// DEPLOYED (or deployment-level ERR) frame.
func (cn *conn) armDeployed() chan error {
	ch := make(chan error, 1)
	cn.depMu.Lock()
	cn.deployedCh = ch
	cn.depMu.Unlock()
	return ch
}

// deliverDeployed resolves an armed REDEPLOY wait; reports whether a
// waiter existed.
func (cn *conn) deliverDeployed(err error) bool {
	cn.depMu.Lock()
	ch := cn.deployedCh
	cn.deployedCh = nil
	cn.depMu.Unlock()
	if ch == nil {
		return false
	}
	ch <- err
	return true
}

// Dial connects to one dgsd daemon per address, verifies each speaks
// this build's protocol version, and makes the fragmentation resident
// across them: daemon j receives the fragments of sites
// HostedRange(n, k, j). It returns an unbound Transport — pass it to
// cluster.NewWithTransport (or dgs.Deploy does both). ctx cancels
// in-flight connects and handshakes.
func Dial(ctx context.Context, addrs []string, fr *partition.Fragmentation, opts Options) (*Net, error) {
	if len(addrs) == 0 {
		return nil, errors.New("tcpnet: no daemon addresses")
	}
	opts = opts.withDefaults()
	n := fr.NumFragments()
	if n < len(addrs) {
		return nil, fmt.Errorf("tcpnet: %d fragments cannot span %d daemons", n, len(addrs))
	}
	t := &Net{
		n:      n,
		opts:   opts,
		perQID: make(map[uint64]int64),
		spares: append([]string(nil), opts.Spares...),
		traces: make(map[uint64]*traceWait),
	}
	if reg := opts.Metrics; reg != nil {
		t.registerMetrics(reg)
	}
	owner := make([]int, n)
	var conns []*conn
	dialer := &net.Dialer{Timeout: dialTimeout}
	for j, addr := range addrs {
		lo, hi := HostedRange(n, len(addrs), j)
		hosted := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			owner[id] = j
			hosted = append(hosted, id)
		}
		nc, err := dialer.DialContext(ctx, "tcp", addr)
		if err != nil {
			closeConns(conns)
			return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
		}
		cn := t.newConn(addr, nc)
		conns = append(conns, cn)
		if err := t.handshake(ctx, cn, fr, hosted); err != nil {
			closeConns(conns)
			return nil, fmt.Errorf("tcpnet: %s: %w", addr, err)
		}
	}
	t.rt.Store(&routing{conns: conns, owner: owner})
	return t, nil
}

func (t *Net) newConn(addr string, nc net.Conn) *conn {
	return &conn{
		t:      t,
		addr:   addr,
		c:      nc,
		br:     bufio.NewReaderSize(nc, 1<<16),
		out:    cluster.NewQueue[outEntry](),
		stopHB: make(chan struct{}),
	}
}

// handshake runs HELLO → HELLO-OK → DEPLOY → DEPLOYED on a fresh
// connection, synchronously and under the context's deadline, shipping
// the fragments of exactly the given site IDs.
func (t *Net) handshake(ctx context.Context, cn *conn, fr *partition.Fragmentation, hosted []int) error {
	deadline := time.Now().Add(dialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := cn.c.SetDeadline(deadline); err != nil {
		return err
	}
	// HELLO carries the build's one protocol version; the daemon echoes
	// it in HELLO-OK or refuses with an ERR.
	hello := appendU16([]byte(helloMagic), ProtocolVersion)
	if err := t.writeDirect(cn, frameHello, hello); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	// Await HELLO-OK (ERR accepted in its slot) BEFORE shipping the
	// fragments: a version-mismatched daemon refuses and closes without
	// reading further, and a large unread DEPLOY would both waste the
	// shipment and turn the daemon's explanatory ERR into an opaque
	// connection reset.
	typ, body, err := wire.ReadFrame(cn.br)
	if err != nil {
		return fmt.Errorf("awaiting HELLO-OK: %w", err)
	}
	if typ == frameErr {
		e, _ := decodeErr(body)
		return fmt.Errorf("daemon refused: %s", e.msg)
	}
	if typ != frameHelloOK {
		return fmt.Errorf("expected HELLO-OK, got %s", frameName(typ))
	}
	v, err := wire.NewByteReader(body).U16()
	if err != nil || v != ProtocolVersion {
		return fmt.Errorf("protocol version mismatch: daemon speaks %d, driver speaks %d", v, ProtocolVersion)
	}
	if err := t.writeDirect(cn, frameDeploy, deployBodyFor(fr, t.n, hosted)); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	typ, body, err = wire.ReadFrame(cn.br)
	if err != nil {
		return fmt.Errorf("awaiting DEPLOYED: %w", err)
	}
	if typ == frameErr {
		e, _ := decodeErr(body)
		return fmt.Errorf("deploy refused: %s", e.msg)
	}
	if typ != frameDeployed {
		return fmt.Errorf("expected DEPLOYED, got %s", frameName(typ))
	}
	return cn.c.SetDeadline(time.Time{})
}

// deployBodyFor encodes a DEPLOY/REDEPLOY body shipping the fragments
// of the given site IDs (sorted) out of the driver's fragmentation.
func deployBodyFor(fr *partition.Fragmentation, total int, hosted []int) []byte {
	ids := append([]int(nil), hosted...)
	sort.Ints(ids)
	var frags []byte
	for _, id := range ids {
		frags = partition.AppendFragment(frags, fr.Frags[id])
	}
	// The driver-owned label dictionary rides along: names indexed by the
	// dense label ids the fragments carry, so daemons can validate and
	// render labels without strings ever appearing on the message path.
	var labels []string
	if fr.G != nil {
		labels = fr.G.Dict().Names()
	}
	return encodeDeploy(deployBody{
		total:  total,
		hosted: ids,
		assign: fr.Assign,
		labels: labels,
		frags:  frags,
	})
}

// writeDirect writes one frame synchronously (handshake only; after
// Bind all writes go through the outbox) and meters exactly the bytes
// that reached the socket as deploy bytes. The deadline was armed for
// the whole handshake by the caller, so writeFrame is invoked without
// its own timeout.
func (t *Net) writeDirect(cn *conn, typ byte, body []byte) error {
	n, err := writeFrame(cn.c, 0, typ, body)
	t.mu.Lock()
	t.deployBytes += int64(n)
	t.mu.Unlock()
	return err
}

func closeConns(conns []*conn) {
	for _, cn := range conns {
		cn.c.Close()
	}
}

// NumSites implements cluster.Transport.
func (t *Net) NumSites() int { return t.n }

// DeployBytes reports the measured one-time deployment traffic:
// handshakes plus shipped fragments (re-deployments included).
func (t *Net) DeployBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deployBytes
}

// Bind implements cluster.Transport: it installs the event sink and
// starts the per-connection reader, writer and (when enabled) heartbeat
// goroutines.
func (t *Net) Bind(ev cluster.Events) {
	t.ev = ev
	for _, cn := range t.rt.Load().conns {
		t.startConn(cn)
	}
}

// startConn launches a connection's goroutines. The closing check and
// the wg.Add happen under one lock so a concurrent Shutdown can never
// observe Add racing its Wait. Reports whether the conn was started.
func (t *Net) startConn(cn *conn) bool {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return false
	}
	hb := t.opts.HeartbeatInterval > 0
	t.wg.Add(2)
	if hb {
		t.wg.Add(1)
	}
	t.mu.Unlock()
	cn.lastIn.Store(time.Now().UnixNano())
	go cn.writer()
	go cn.readLoop()
	if hb {
		go cn.heartbeatLoop()
	}
	return true
}

// addWire meters frame bytes onto a session. Only sessions with a live
// meter (created at Open, removed at Close) accumulate: frames that
// straggle in after a Close would otherwise resurrect the deleted entry
// and leak it forever on a long-lived deployment. Unattributable bytes
// count as deployment traffic instead, so nothing goes unmeasured.
func (t *Net) addWire(qid uint64, n int) {
	t.mu.Lock()
	if _, live := t.perQID[qid]; qid != 0 && live {
		t.perQID[qid] += int64(n)
	} else {
		t.deployBytes += int64(n)
	}
	t.mu.Unlock()
}

// enqueue queues a pre-framed control frame for cn. Metering happens in
// the writer at flush time (writeChunk), so measured bytes are exactly
// what the socket saw.
func (t *Net) enqueue(cn *conn, qid uint64, typ byte, body []byte) {
	cn.out.Put(outEntry{kind: entryFrame, qid: qid, data: wire.AppendFrame(nil, typ, body)})
}

// Open implements cluster.Transport: OPEN frames go to every daemon
// ahead of any of the session's messages (FIFO per connection), so no
// delivery can race handler installation. Resolution errors surface
// asynchronously as ERR frames.
func (t *Net) Open(qid uint64, kind cluster.SessionKind, spec cluster.SessionSpec) error {
	t.mu.Lock()
	t.perQID[qid] = 0 // arm the session's wire meter
	t.mu.Unlock()
	conns := t.rt.Load().conns
	if spec.TraceID != 0 {
		// Arm the trace wait before any OPEN can be answered: one TRACE
		// frame is owed per live connection. A dead connection's spans are
		// missing by construction — the wait starts out partial.
		w := &traceWait{done: make(chan struct{})}
		for _, cn := range conns {
			if !cn.dead.Load() {
				w.want++
			} else {
				w.partial = true
			}
		}
		if w.want == 0 {
			w.abandon()
		}
		t.traceMu.Lock()
		t.traces[qid] = w
		t.traceMu.Unlock()
	}
	body := encodeOpen(openBody{qid: qid, kind: kind, spec: spec})
	for _, cn := range conns {
		t.enqueue(cn, qid, frameOpen, body)
	}
	return nil
}

// Close implements cluster.Transport. The session's wire meter is
// released first — the CLOSE frames themselves, and any stragglers
// still in flight, are then metered as deployment traffic by addWire —
// so a long-lived deployment serving many queries neither leaks meter
// entries nor loses measured bytes.
func (t *Net) Close(qid uint64) {
	t.mu.Lock()
	delete(t.perQID, qid)
	t.mu.Unlock()
	body := appendU64(nil, qid)
	for _, cn := range t.rt.Load().conns {
		t.enqueue(cn, qid, frameClose, body)
	}
}

// Send implements cluster.Transport. The message is queued as a typed
// entry: the destination connection's writer merges consecutive
// same-session messages into one MSGB frame at flush time. A dead
// connection's outbox swallows the entry — the session it belonged to
// already failed with the site loss.
func (t *Net) Send(qid uint64, from, to int, data []byte) {
	rt := t.rt.Load()
	cn := rt.conns[rt.owner[to]]
	cn.out.Put(outEntry{kind: entryMsg, qid: qid, from: int32(from), to: int64(to), data: data})
	if t.msgsOut != nil {
		t.msgsOut.Inc()
	}
}

// Frames reports post-deployment frames written to and read from the
// driver's sockets, over all connections: the denominator of frames per
// query and messages per frame.
func (t *Net) Frames() (sent, received int64) {
	return t.framesOut.Load(), t.framesIn.Load()
}

// registerMetrics installs the transport's instruments on reg. Sampled
// values (frame counters, deploy bytes, outbox depth) are exported as
// funcs over the existing counters so the hot path gains no new writes;
// only genuinely new signals (message sends, heartbeat RTT, site
// losses) get dedicated instruments.
func (t *Net) registerMetrics(reg *obs.Registry) {
	t.msgsOut = reg.Counter("dgs_net_msgs_out_total",
		"Session messages handed to the transport for delivery to a site.")
	t.siteLosses = reg.Counter("dgs_net_site_losses_total",
		"Daemon connections declared lost (heartbeat silence or socket error).")
	t.hbRTT = reg.Histogram("dgs_net_heartbeat_rtt_seconds",
		"Round-trip time from PING enqueue to PONG receipt.", obs.DefTimeBuckets)
	reg.CounterFunc("dgs_net_frames_out_total",
		"Post-deployment frames written to daemon sockets.",
		func() float64 { return float64(t.framesOut.Load()) })
	reg.CounterFunc("dgs_net_frames_in_total",
		"Post-deployment frames read from daemon sockets.",
		func() float64 { return float64(t.framesIn.Load()) })
	reg.CounterFunc("dgs_net_deploy_bytes_total",
		"Deployment traffic bytes: handshakes, fragment shipping, and unattributable stragglers.",
		func() float64 { return float64(t.DeployBytes()) })
	reg.GaugeFunc("dgs_net_outbox_depth",
		"Outbound entries queued across all live connections, awaiting the writers.",
		func() float64 {
			var depth int
			for _, cn := range t.rt.Load().conns {
				if !cn.dead.Load() {
					depth += cn.out.Len()
				}
			}
			return float64(depth)
		})
}

// traceWaitFor looks a pending trace wait up.
func (t *Net) traceWaitFor(qid uint64) (*traceWait, bool) {
	t.traceMu.Lock()
	defer t.traceMu.Unlock()
	w, ok := t.traces[qid]
	return w, ok
}

// abandonTraces marks every pending trace wait partial and resolves it —
// the connection-loss and shutdown path. A finer per-connection account
// of which daemon still owed spans is not kept: a loss mid-session
// fails the traced query anyway, so a partial trace is the honest
// answer for all of them.
func (t *Net) abandonTraces() {
	t.traceMu.Lock()
	waits := make([]*traceWait, 0, len(t.traces))
	for _, w := range t.traces {
		waits = append(waits, w)
	}
	t.traceMu.Unlock()
	for _, w := range waits {
		w.abandon()
	}
}

// Trace implements cluster.Tracer: it blocks until every daemon
// shipped its TRACE frame for the closed session qid (their frames
// chase the CLOSE on the same connections, so the wait is one network
// round-trip) and returns the collected spans. complete is false when
// any daemon died before reporting. A qid that was never traced returns
// (nil, false, nil) immediately.
func (t *Net) Trace(ctx context.Context, qid uint64) ([]obs.SiteTrace, bool, error) {
	t.traceMu.Lock()
	w, ok := t.traces[qid]
	t.traceMu.Unlock()
	if !ok {
		return nil, false, nil
	}
	// The wait stays registered until it resolves: the TRACE frames chase
	// the CLOSE over the network, so they almost always arrive after this
	// call starts blocking, and the read loop must still find the wait.
	var ctxErr error
	select {
	case <-w.done:
	case <-ctx.Done():
		w.abandon()
		ctxErr = ctx.Err()
	}
	t.traceMu.Lock()
	delete(t.traces, qid)
	t.traceMu.Unlock()
	if ctxErr != nil {
		return nil, false, ctxErr
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.spans, !w.partial, nil
}

// WireBytes implements cluster.Transport: measured socket bytes (frame
// headers included) attributed to the session, both directions.
func (t *Net) WireBytes(qid uint64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perQID[qid]
}

// Shutdown implements cluster.Transport: BYE every daemon, flush the
// outboxes, close the sockets.
func (t *Net) Shutdown() {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return
	}
	t.closing = true
	t.mu.Unlock()
	t.abandonTraces()
	for _, cn := range t.rt.Load().conns {
		cn.stop()
		cn.out.Put(outEntry{kind: entryFrame, data: wire.AppendFrame(nil, frameBye, nil)})
		cn.out.Close()
	}
	// Writers drain (BYE last), then close the write side; readers
	// unblock on EOF/reset and exit without reporting failure.
	t.wg.Wait()
}

func (t *Net) isClosing() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closing
}

// fail reports a deployment-fatal transport failure (protocol
// corruption) to the driver once and poisons the outboxes so sends
// become no-ops. Connection-scoped errors go through loseConn instead.
func (t *Net) fail(err error) {
	t.mu.Lock()
	closing := t.closing
	t.closing = true
	t.mu.Unlock()
	for _, cn := range t.rt.Load().conns {
		cn.stop()
		cn.out.Close()
	}
	t.abandonTraces()
	if !closing && t.ev != nil {
		t.ev.Fail(0, err)
	}
}

// sitesOf lists the site IDs currently routed to cn.
func (t *Net) sitesOf(cn *conn) []int {
	rt := t.rt.Load()
	var ids []int
	for id, ci := range rt.owner {
		if rt.conns[ci] == cn {
			ids = append(ids, id)
		}
	}
	return ids
}

// loseConn scopes a failure to the daemon it came from: the connection
// is severed and its sites are reported lost with an error wrapping
// cluster.ErrSiteLost — suspending the cluster rather than poisoning it
// — and the registered loss callback is invoked so the deployment layer
// can run recovery. Idempotent per connection.
func (t *Net) loseConn(cn *conn, cause error) {
	if cn.dead.Swap(true) {
		return
	}
	cn.stop()
	cn.out.Close()
	cn.c.Close()
	lostErr := fmt.Errorf("tcpnet: daemon %s (sites %v): %v: %w", cn.addr, t.sitesOf(cn), cause, cluster.ErrSiteLost)
	cn.deliverDeployed(lostErr)
	// The lost daemon may still owe TRACE frames; resolve the waits as
	// partial rather than leaving trace collectors blocked.
	t.abandonTraces()
	if t.isClosing() {
		return
	}
	if t.siteLosses != nil {
		t.siteLosses.Inc()
	}
	if t.ev != nil {
		t.ev.Fail(0, lostErr)
	}
	t.mu.Lock()
	fn := t.onLoss
	t.mu.Unlock()
	if fn != nil {
		// Decoupled from the transport goroutine: the callback runs
		// recovery, which talks back to the transport.
		go fn(lostErr)
	}
}

// OnSiteLoss implements cluster.LossNotifier.
func (t *Net) OnSiteLoss(fn func(err error)) {
	t.mu.Lock()
	t.onLoss = fn
	t.mu.Unlock()
}

// Lost implements cluster.Recoverer: the site IDs currently routed to a
// dead connection, ascending.
func (t *Net) Lost() []int {
	rt := t.rt.Load()
	var lost []int
	for id, ci := range rt.owner {
		if rt.conns[ci].dead.Load() {
			lost = append(lost, id)
		}
	}
	return lost
}

// takeSpare pops the next unused spare address; ok=false when none are
// left.
func (t *Net) takeSpare() (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spares) == 0 {
		return "", false
	}
	addr := t.spares[0]
	t.spares = t.spares[1:]
	return addr, true
}

// Recover implements cluster.Recoverer: re-host every lost site from
// the driver's fragmentation. Preference order: dial a spare daemon (a
// full HELLO/DEPLOY handshake shipping only the lost sites' fragments),
// else REDEPLOY onto the live connection hosting the fewest sites.
// With full set, every surviving connection additionally gets its own
// sites' fragments re-shipped with replace semantics — the mode for a
// loss that interrupted an update batch, where survivors may hold a
// partially-applied state ahead of the driver's committed one. On
// success the routing snapshot is swapped and the transport carries
// traffic for all n sites again; the caller then resumes the cluster.
func (t *Net) Recover(ctx context.Context, fr *partition.Fragmentation, full bool) error {
	t.recoverMu.Lock()
	defer t.recoverMu.Unlock()
	if t.isClosing() {
		return errors.New("tcpnet: transport is shut down")
	}
	rt := t.rt.Load()
	var lost []int
	var live []*conn
	liveSites := make(map[*conn][]int)
	for id, ci := range rt.owner {
		cn := rt.conns[ci]
		if cn.dead.Load() {
			lost = append(lost, id)
		} else {
			if len(liveSites[cn]) == 0 {
				live = append(live, cn)
			}
			liveSites[cn] = append(liveSites[cn], id)
		}
	}
	if len(lost) == 0 && !full {
		return nil
	}

	// Place the lost sites: a fresh spare connection if one dials, else
	// the least-loaded survivor.
	var spareConn *conn
	var target *conn
	if len(lost) > 0 {
		for spareConn == nil {
			addr, ok := t.takeSpare()
			if !ok {
				break
			}
			dialer := &net.Dialer{Timeout: dialTimeout}
			nc, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				continue // consumed; try the next spare
			}
			cn := t.newConn(addr, nc)
			if err := t.handshake(ctx, cn, fr, lost); err != nil {
				nc.Close()
				continue
			}
			spareConn = cn
		}
		if spareConn == nil {
			for _, cn := range live {
				if target == nil || len(liveSites[cn]) < len(liveSites[target]) {
					target = cn
				}
			}
			if target == nil {
				return fmt.Errorf("tcpnet: sites %v lost with no spare daemon and no surviving daemon: %w", lost, cluster.ErrSiteLost)
			}
		}
	}

	// Ship the REDEPLOY frames: the redeploy target gets the lost sites
	// (plus, under full, its own), every other survivor its own under
	// full. Per-connection FIFO order means frames enqueued after the
	// REDEPLOY are processed only once the fragments are resident.
	type redeployWait struct {
		cn *conn
		ch chan error
	}
	var waits []redeployWait
	for _, cn := range live {
		ship := append([]int(nil), lost...)
		if cn != target {
			ship = nil
		}
		if full {
			ship = append(ship, liveSites[cn]...)
		}
		if len(ship) == 0 {
			continue
		}
		ch := cn.armDeployed()
		t.enqueue(cn, 0, frameRedeploy, deployBodyFor(fr, t.n, ship))
		if cn.dead.Load() {
			cn.deliverDeployed(fmt.Errorf("tcpnet: daemon %s died during recovery: %w", cn.addr, cluster.ErrSiteLost))
		}
		waits = append(waits, redeployWait{cn, ch})
	}
	for _, w := range waits {
		select {
		case err := <-w.ch:
			if err != nil {
				return fmt.Errorf("tcpnet: redeploy on %s: %w", w.cn.addr, err)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Swap the routing snapshot. Dead connections stay in conns (their
	// outboxes swallow stragglers) but nothing routes to them anymore.
	conns := rt.conns
	targetIdx := -1
	if spareConn != nil {
		conns = append(append([]*conn(nil), rt.conns...), spareConn)
		targetIdx = len(conns) - 1
	} else if target != nil {
		for i, cn := range rt.conns {
			if cn == target {
				targetIdx = i
				break
			}
		}
	}
	owner := append([]int(nil), rt.owner...)
	for _, id := range lost {
		owner[id] = targetIdx
	}
	t.rt.Store(&routing{conns: conns, owner: owner})
	if spareConn != nil && !t.startConn(spareConn) {
		return errors.New("tcpnet: transport shut down during recovery")
	}
	return nil
}

// writer runs the connection's writeLoop; a write error loses the
// daemon.
func (cn *conn) writer() {
	t := cn.t
	defer t.wg.Done()
	meter := func(qid uint64, n int) {
		t.addWire(qid, n)
		t.framesOut.Add(1)
	}
	if err := writeLoop(cn.c, cn.out, meter); err != nil {
		t.loseConn(cn, fmt.Errorf("write: %w", err))
		return
	}
	cn.c.Close()
}

// heartbeatLoop is the per-connection failure detector: a PING every
// HeartbeatInterval, with the age of the last inbound frame as the
// liveness signal (any frame proves life; PONGs merely guarantee
// one exists on an otherwise idle connection). When the silence exceeds
// HeartbeatMisses intervals it performs a dial-back probe for the
// diagnostic and declares the daemon lost. Silence wins regardless of
// the probe's outcome: a dgsd serves one driver connection at a time,
// so a wedged daemon's listener still accepts (the probe parks in the
// backlog) — a successful dial proves the process exists, not that it
// serves.
func (cn *conn) heartbeatLoop() {
	t := cn.t
	defer t.wg.Done()
	interval := t.opts.HeartbeatInterval
	window := time.Duration(t.opts.HeartbeatMisses) * interval
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-cn.stopHB:
			return
		case <-ticker.C:
		}
		if cn.dead.Load() {
			return
		}
		silence := time.Since(time.Unix(0, cn.lastIn.Load()))
		if silence < window {
			// Stamp only when the previous PING was answered, so a slow
			// daemon's eventual PONG is measured against the PING that
			// provoked it, not a later one.
			cn.pingAt.CompareAndSwap(0, time.Now().UnixNano())
			t.enqueue(cn, 0, framePing, encodePingPong(cn.pingSeq.Add(1)))
			continue
		}
		// Missed-beat threshold crossed: dial-back probe, then one
		// re-check — a PONG may have raced past the threshold read.
		probe := "probe dial failed"
		if pc, err := net.DialTimeout("tcp", cn.addr, interval); err == nil {
			pc.Close()
			probe = "probe dial connected but the serving connection stayed silent"
		}
		if time.Since(time.Unix(0, cn.lastIn.Load())) < window {
			continue
		}
		t.loseConn(cn, fmt.Errorf("heartbeat: no inbound frame for %v (threshold %d×%v); %s",
			silence.Round(time.Millisecond), t.opts.HeartbeatMisses, interval, probe))
		return
	}
}

// siteRangeOK checks remote-supplied endpoints against the
// deployment's shape.
func (t *Net) siteRangeOK(from, to int) bool {
	if to != cluster.Coordinator && (to < 0 || to >= t.n) {
		return false
	}
	if from != cluster.Coordinator && (from < 0 || from >= t.n) {
		return false
	}
	return true
}

func (cn *conn) readLoop() {
	t := cn.t
	defer t.wg.Done()
	for {
		typ, body, err := wire.ReadFrame(cn.br)
		if err != nil {
			if !t.isClosing() && !cn.dead.Load() {
				t.loseConn(cn, fmt.Errorf("read: %w", err))
			}
			return
		}
		cn.lastIn.Store(time.Now().UnixNano())
		t.framesIn.Add(1)
		switch typ {
		case frameMsgB:
			qid, batch, err := decodeMsgB(body)
			if err != nil {
				t.fail(fmt.Errorf("tcpnet: %s sent bad MSGB: %w", cn.addr, err))
				return
			}
			t.addWire(qid, wire.FrameOverhead+len(body))
			// Sub-message Data aliases the frame body (zero-copy decode);
			// the body is a fresh per-ReadFrame allocation that is never
			// reused, so handing the slices to the router is safe.
			for _, m := range batch.Msgs {
				// Range-check remote input here: a corrupt or skewed daemon
				// must fail the deployment, not panic the driver's router.
				from, to := int(m.From), int(m.To)
				if !t.siteRangeOK(from, to) {
					t.fail(fmt.Errorf("tcpnet: %s sent MSGB with out-of-range site (%d→%d of %d)", cn.addr, from, to, t.n))
					return
				}
				t.ev.SiteSent(qid, from, to, m.Data)
			}
		case frameAckN:
			a, err := decodeAckN(body)
			if err != nil {
				t.fail(fmt.Errorf("tcpnet: %s sent bad ACKN: %w", cn.addr, err))
				return
			}
			t.addWire(a.qid, wire.FrameOverhead+len(body))
			t.ev.Retired(a.qid, a.site, time.Duration(a.busyNs), a.rounds, a.count)
		case framePong:
			if _, err := decodePingPong(body); err != nil {
				t.fail(fmt.Errorf("tcpnet: %s sent bad PONG: %w", cn.addr, err))
				return
			}
			// lastIn was already refreshed above. Close the RTT window the
			// matching PING opened, if one is outstanding.
			if at := cn.pingAt.Swap(0); at != 0 && t.hbRTT != nil {
				t.hbRTT.Observe(time.Since(time.Unix(0, at)).Seconds())
			}
		case frameTrace:
			qid, spans, err := decodeTrace(body)
			if err != nil {
				t.fail(fmt.Errorf("tcpnet: %s sent bad TRACE: %w", cn.addr, err))
				return
			}
			// TRACE chases the CLOSE, so the session's meter is already
			// gone; addWire books the bytes as deployment traffic, keeping
			// a session's WireBytes identical traced or not.
			t.addWire(qid, wire.FrameOverhead+len(body))
			if w, ok := t.traceWaitFor(qid); ok {
				w.deliver(spans)
			}
		case frameDeployed:
			// A REDEPLOY completed. Outside a recovery this frame is
			// out-of-spec.
			if !cn.deliverDeployed(nil) {
				t.fail(fmt.Errorf("tcpnet: unexpected DEPLOYED from %s", cn.addr))
				return
			}
		case frameErr:
			e, err := decodeErr(body)
			if err != nil {
				t.fail(fmt.Errorf("tcpnet: %s sent bad ERR: %w", cn.addr, err))
				return
			}
			if e.qid == 0 {
				derr := fmt.Errorf("tcpnet: daemon %s: %s", cn.addr, e.msg)
				cn.deliverDeployed(derr)
				t.fail(derr)
				return
			}
			t.ev.Fail(e.qid, fmt.Errorf("tcpnet: daemon %s: %s", cn.addr, e.msg))
		default:
			t.fail(fmt.Errorf("tcpnet: unexpected %s from %s", frameName(typ), cn.addr))
			return
		}
	}
}
