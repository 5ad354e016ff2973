package cluster

// The Transport seam. A Cluster owns the driver side of a deployment —
// the coordinator actor, per-session quiescence counters and statistics —
// and reaches its n worker sites exclusively through a Transport. Two
// backends implement it:
//
//   - the in-process channel network (InProc, below), where sites are
//     goroutines in the driver's own process — the original runtime, now
//     just one backend; and
//   - the TCP backend (internal/transport/tcpnet), where sites live in
//     dgsd daemon processes and every message crosses a real socket as a
//     length-prefixed wire frame.
//
// Because site handlers must be constructible in a process that has never
// seen the driver's objects, sessions are opened from a SessionSpec — an
// algorithm name resolved against the site-factory registry plus the
// encoded query and configuration — rather than from caller-built
// handler values. Direct handler sessions (NewSession) remain available
// on in-process transports for tests and custom protocols.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dgs/internal/obs"
	"dgs/internal/partition"
)

// SessionSpec describes a session so that any site — local or remote —
// can instantiate its per-site handler: the registered algorithm name,
// the query in pattern wire encoding (empty for query-less protocols
// such as the acyclicity check and fragment-update distribution), and an
// algorithm-specific configuration blob.
type SessionSpec struct {
	Algo   string
	Query  []byte
	Config []byte
	// Plan carries an optional evaluation plan (internal/plan wire
	// encoding). Plans are advisory — they reorder work without changing
	// results. Empty is the identity plan: the site evaluates in
	// declaration order.
	Plan []byte
	// TraceID, when nonzero, asks every site to record per-round spans
	// for this session (internal/obs) and ship them back on close. Like
	// the plan, tracing is advisory. Zero means tracing off.
	TraceID uint64
}

// Transport hosts the worker sites of one deployment and moves encoded
// payloads between them and the driver. All methods are safe for
// concurrent use. Send and Close are fire-and-forget: delivery failures
// surface asynchronously through Events.Fail.
type Transport interface {
	// NumSites reports the number of worker sites the transport hosts.
	NumSites() int
	// Bind installs the driver's event sink. Called exactly once, before
	// any session is opened.
	Bind(ev Events)
	// Open instantiates session qid's handlers on every site from spec.
	// An error means no site holds the session (in-process resolution
	// failure); remote resolution failures arrive through Events.Fail.
	Open(qid uint64, kind SessionKind, spec SessionSpec) error
	// Close discards session qid's handlers and any queued traffic.
	Close(qid uint64)
	// Send delivers one encoded payload to worker site `to` on behalf of
	// session qid. from may be Coordinator or another site ID.
	Send(qid uint64, from, to int, data []byte)
	// Shutdown tears the backend down, releasing site resources and —
	// for networked backends — closing connections gracefully.
	Shutdown()
	// WireBytes reports the measured transport-level bytes (frame
	// headers included) attributable to session qid: 0 for in-process
	// backends, real socket bytes for networked ones.
	WireBytes(qid uint64) int64
}

// HandlerOpener is the optional Transport extension for direct handler
// sessions: installing caller-built Handler values is only possible when
// the sites share the caller's address space.
type HandlerOpener interface {
	OpenHandlers(qid uint64, sites []Handler) error
}

// FragmentSharer is the optional Transport extension declaring whether
// the sites operate on the driver's own fragment objects (in-process
// hosting) or on shipped copies. Deployments use it to decide whether
// an update batch must additionally be replayed driver-side; a wrapper
// around an in-process transport should forward it. Absent, a transport
// is assumed to hold copies.
type FragmentSharer interface {
	SharesDriverFragments() bool
}

// Recoverer is the optional Transport extension for site-loss recovery.
// A transport implementing it scopes failures to individual sites
// (reporting them via Events.Fail with an error wrapping ErrSiteLost)
// instead of declaring the whole deployment dead, and can re-host the
// lost sites afterwards.
type Recoverer interface {
	// Lost reports the IDs of the worker sites currently without a live
	// host, ascending. Empty means every site is reachable.
	Lost() []int
	// Recover re-hosts every lost site from the driver's fragmentation —
	// the driver retains each fragment's shippable bytes — onto a spare
	// or surviving host. With full set, every site's fragment is
	// re-shipped (replace semantics), the recovery mode for a loss that
	// interrupted an update batch and may have left survivors ahead of
	// the driver's committed state. An error means the lost sites remain
	// down (e.g. no spare host available).
	Recover(ctx context.Context, fr *partition.Fragmentation, full bool) error
}

// Tracer is the optional Transport extension for distributed query
// tracing: collecting the per-site spans the hosts of a traced session
// recorded. Call after the session was closed — remote hosts ship
// their spans when they process the close. complete is false when some
// host's spans are missing (a connection lost before its spans
// arrived); the
// returned spans are still valid for the hosts that reported.
type Tracer interface {
	Trace(ctx context.Context, qid uint64) (spans []obs.SiteTrace, complete bool, err error)
}

// LossNotifier is the optional Transport extension that announces
// detected site losses to the deployment layer, which reacts by running
// recovery. fn may be invoked from any transport goroutine and must not
// call back into the transport synchronously.
type LossNotifier interface {
	OnSiteLoss(fn func(err error))
}

// Events is the upcall sink a Transport drives; the Cluster implements
// it. Calls may come from any transport goroutine.
type Events interface {
	// SiteSent records that a site-originated message entered the
	// network, taking over accounting and routing: the cluster counts it
	// in-flight and either delivers it to the coordinator or hands it
	// back to the transport for the destination site.
	SiteSent(qid uint64, from, to int, data []byte)
	// Deliver hands the coordinator a message addressed to it whose
	// accounting already happened (used by transports that route
	// coordinator traffic themselves; SiteSent calls it internally).
	Deliver(qid uint64, from int, data []byte)
	// Retired reports that session qid's messages finished processing at
	// a site, together with the handlers' summed busy time and any
	// communication rounds they recorded. cum is the site's cumulative
	// count of the session's retired messages: the in-flight counter
	// drops by what cum adds to the last count seen from the site, so a
	// replayed retirement is a no-op and merged ones certify exactly what
	// their parts would have.
	Retired(qid uint64, site int, busy time.Duration, rounds int64, cum uint64)
	// Fail aborts session qid with err; qid 0 aborts every session (the
	// transport itself died). Waiters observe err from WaitQuiesce.
	Fail(qid uint64, err error)
}

// SiteFactory builds one site's handler for a session opened from a
// spec. frag is the site's resident fragment and assign the global
// owner directory; both are nil on fragment-less hosts (pure protocol
// tests). Factories run on the process hosting the site.
type SiteFactory func(spec SessionSpec, frag *partition.Fragment, assign []int32) (Handler, error)

var (
	regMu    sync.Mutex
	registry = make(map[string]SiteFactory)
)

// RegisterAlgorithm installs the site factory for spec.Algo == name.
// Algorithm packages register themselves in init; a binary that should
// serve an algorithm (the driver in-process, or cmd/dgsd remotely) just
// imports its package. Duplicate names panic.
func RegisterAlgorithm(name string, f SiteFactory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cluster: algorithm %q registered twice", name))
	}
	registry[name] = f
}

// ResolveAlgorithm looks a registered site factory up by name.
func ResolveAlgorithm(name string) (SiteFactory, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	f, ok := registry[name]
	return f, ok
}

// RegisteredAlgorithms lists the registered algorithm names, sorted —
// what a dgsd daemon advertises and `make docs` cross-checks.
func RegisteredAlgorithms() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
