// Package faultnet is a seeded, scriptable fault-injection decorator
// for cluster transports: it wraps any inner Transport (typically the
// in-process backend) and injects site kills, half-open connections,
// delivery delays, message drops and duplicate retirement delivery at
// scripted points — deterministically per seed, so every chaos failure
// is replayable.
//
// Failure model. Kill marks a site dead and reports the loss
// synchronously through Events.Fail with an error wrapping
// cluster.ErrSiteLost — the decorator IS the failure detector for the
// in-process backend, playing the role the TCP heartbeat plays for
// dgsd daemons. HalfOpen marks a site silently dead: its traffic is
// dropped but no loss is reported until DetectSilent runs (the
// in-process analogue of the heartbeat timeout firing). In both states
// every message to or from the site is dropped — the drop injection —
// and its retirements are suppressed. Revive clears the mark, modelling
// replacement capacity coming up; Recover then re-hosts the failed
// sites' fragments from the driver's fragmentation, codec-cloned so the
// replacement state is the driver's committed one, not the stale or
// diverged site object.
//
// The decorator deliberately does not forward the FragmentSharer
// extension: even over an in-process inner transport, a deployment
// behind faultnet behaves like a remote one (the driver replays update
// batches on its own fragmentation), which is exactly the state
// separation recovery needs.
package faultnet

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// Options configure the injected faults. The zero value injects
// nothing until Kill/HalfOpen are called.
type Options struct {
	// Seed feeds the decorator's private RNG; runs with equal seeds and
	// equal call sequences draw identical jitter and duplication
	// decisions.
	Seed int64
	// MaxDelay, when positive, delays each delivered message by a
	// seeded jitter in [0, MaxDelay), charged synchronously on the
	// sending goroutine so per-sender ordering is preserved.
	MaxDelay time.Duration
	// DupRetire, when positive, is the probability (0..1) that a
	// retirement upcall is delivered twice — the duplicate-ACK
	// injection the driver's cumulative per-site ledger must absorb.
	DupRetire float64
}

type siteMode uint8

const (
	modeLive     siteMode = iota
	modeKilled            // dead and reported lost
	modeHalfOpen          // dead and silent: reported only by DetectSilent
)

// Net is the fault-injecting cluster.Transport decorator.
type Net struct {
	inner cluster.Transport
	opts  Options

	mu         sync.Mutex
	rng        *rand.Rand
	state      []siteMode
	needRehost map[int]bool // sites whose fragments must be re-shipped
	onLoss     func(error)
	ev         cluster.Events
}

var _ cluster.Transport = (*Net)(nil)
var _ cluster.Recoverer = (*Net)(nil)
var _ cluster.HandlerOpener = (*Net)(nil)

// rehoster is what the inner transport must provide for Recover;
// cluster.InProc implements it.
type rehoster interface {
	Rehost(frags map[int]*partition.Fragment)
}

// Wrap decorates inner. The inner transport must be unbound (Wrap
// interposes on Bind).
func Wrap(inner cluster.Transport, opts Options) *Net {
	return &Net{
		inner:      inner,
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		state:      make([]siteMode, inner.NumSites()),
		needRehost: make(map[int]bool),
	}
}

// NumSites implements cluster.Transport.
func (t *Net) NumSites() int { return t.inner.NumSites() }

// Bind implements cluster.Transport, interposing the fault-injecting
// event filter between the inner transport and the cluster.
func (t *Net) Bind(ev cluster.Events) {
	t.mu.Lock()
	t.ev = ev
	t.mu.Unlock()
	t.inner.Bind((*filteredEvents)(t))
}

// Open implements cluster.Transport. Sessions open on dead sites too —
// their handlers are simply unreachable, like a daemon that stopped
// reading.
func (t *Net) Open(qid uint64, kind cluster.SessionKind, spec cluster.SessionSpec) error {
	return t.inner.Open(qid, kind, spec)
}

// Close implements cluster.Transport.
func (t *Net) Close(qid uint64) { t.inner.Close(qid) }

// OpenHandlers forwards cluster.HandlerOpener when the inner transport
// supports it, so driver-built handler sessions work under fault
// injection too.
func (t *Net) OpenHandlers(qid uint64, sites []cluster.Handler) error {
	ho, ok := t.inner.(cluster.HandlerOpener)
	if !ok {
		return fmt.Errorf("faultnet: inner transport %T cannot open handler sessions", t.inner)
	}
	return ho.OpenHandlers(qid, sites)
}

// Send implements cluster.Transport: messages to a dead site are
// dropped, others are forwarded in order, the run after one seeded delay
// jitter per message.
func (t *Net) Send(qid uint64, msgs []wire.BatchMsg) {
	live := filterRun(msgs, func(m wire.BatchMsg) bool { return !t.dead(int(m.To)) })
	for range live {
		t.jitter()
	}
	if len(live) > 0 {
		t.inner.Send(qid, live)
	}
}

// filterRun returns msgs itself when keep holds for every message, and a
// fresh slice of the kept ones, in order, otherwise.
func filterRun(msgs []wire.BatchMsg, keep func(wire.BatchMsg) bool) []wire.BatchMsg {
	i := slices.IndexFunc(msgs, func(m wire.BatchMsg) bool { return !keep(m) })
	if i < 0 {
		return msgs
	}
	out := slices.Clone(msgs[:i])
	for _, m := range msgs[i+1:] {
		if keep(m) {
			out = append(out, m)
		}
	}
	return out
}

// Shutdown implements cluster.Transport.
func (t *Net) Shutdown() { t.inner.Shutdown() }

// WireBytes implements cluster.Transport.
func (t *Net) WireBytes(qid uint64) int64 { return t.inner.WireBytes(qid) }

func (t *Net) dead(site int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return site >= 0 && site < len(t.state) && t.state[site] != modeLive
}

// jitter sleeps a seeded duration in [0, MaxDelay) on the calling
// goroutine; no-op when MaxDelay is 0.
func (t *Net) jitter() {
	if t.opts.MaxDelay <= 0 {
		return
	}
	t.mu.Lock()
	d := time.Duration(t.rng.Int63n(int64(t.opts.MaxDelay)))
	t.mu.Unlock()
	time.Sleep(d)
}

// Kill marks a site dead and reports the loss synchronously: by the
// time Kill returns, in-flight sessions have been failed with an error
// wrapping cluster.ErrSiteLost and the loss callback (if any) has run.
// Idempotent per site while it stays dead.
func (t *Net) Kill(site int) {
	t.failSite(site, modeKilled, true)
}

// HalfOpen marks a site silently dead: its traffic is dropped and its
// retirements suppressed, but no loss is reported — the hang a
// heartbeat exists to detect. DetectSilent reports it.
func (t *Net) HalfOpen(site int) {
	t.failSite(site, modeHalfOpen, false)
}

// DetectSilent reports every half-open site as lost — the in-process
// analogue of the heartbeat timeout firing — and returns their IDs.
func (t *Net) DetectSilent() []int {
	t.mu.Lock()
	var ids []int
	for site, m := range t.state {
		if m == modeHalfOpen {
			t.state[site] = modeKilled
			ids = append(ids, site)
		}
	}
	t.mu.Unlock()
	for _, site := range ids {
		t.report(site)
	}
	return ids
}

func (t *Net) failSite(site int, mode siteMode, report bool) {
	t.mu.Lock()
	if site < 0 || site >= len(t.state) || t.state[site] != modeLive {
		t.mu.Unlock()
		return
	}
	t.state[site] = mode
	t.needRehost[site] = true
	t.mu.Unlock()
	if report {
		t.report(site)
	}
}

func (t *Net) report(site int) {
	t.mu.Lock()
	ev, fn := t.ev, t.onLoss
	t.mu.Unlock()
	err := fmt.Errorf("faultnet: site %d lost: %w", site, cluster.ErrSiteLost)
	if ev != nil {
		ev.Fail(0, err)
	}
	if fn != nil {
		fn(err)
	}
}

// Revive clears a site's failure mark — replacement capacity is up —
// without re-hosting its state; Recover does that.
func (t *Net) Revive(site int) {
	t.mu.Lock()
	if site >= 0 && site < len(t.state) {
		t.state[site] = modeLive
	}
	t.mu.Unlock()
}

// OnSiteLoss implements cluster.Recoverer. The callback runs
// synchronously inside Kill/DetectSilent, which is what keeps scripted
// chaos schedules deterministic; it must not call back into Kill.
func (t *Net) OnSiteLoss(fn func(err error)) {
	t.mu.Lock()
	t.onLoss = fn
	t.mu.Unlock()
}

// Lost implements cluster.Recoverer: the sites currently dead,
// ascending.
func (t *Net) Lost() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []int
	for site, m := range t.state {
		if m != modeLive {
			ids = append(ids, site)
		}
	}
	return ids
}

// Recover implements cluster.Recoverer: re-host the failed sites'
// fragments (every site's, with full set) from the driver's
// fragmentation, codec-cloned so driver and site state stay distinct
// objects. It fails while any site is still marked dead — the
// in-process model of "no spare site available" — so chaos scripts
// Revive first.
func (t *Net) Recover(ctx context.Context, fr *partition.Fragmentation, full bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.Lock()
	for site, m := range t.state {
		if m != modeLive {
			t.mu.Unlock()
			return fmt.Errorf("faultnet: site %d still down, no spare site: %w", site, cluster.ErrSiteLost)
		}
	}
	need := make([]int, 0, len(t.needRehost))
	for site := range t.needRehost {
		need = append(need, site)
	}
	t.mu.Unlock()
	rh, ok := t.inner.(rehoster)
	if !ok {
		return fmt.Errorf("faultnet: inner transport %T cannot re-host fragments", t.inner)
	}
	frags := make(map[int]*partition.Fragment)
	if full {
		for i, f := range fr.Frags {
			frags[i] = partition.CloneFragment(f)
		}
	} else {
		for _, site := range need {
			frags[site] = partition.CloneFragment(fr.Frags[site])
		}
	}
	rh.Rehost(frags)
	t.mu.Lock()
	t.needRehost = make(map[int]bool)
	t.mu.Unlock()
	return nil
}

// filteredEvents is the Events decorator faultnet interposes: a dead
// site's output and retirements are suppressed (silence), and live
// retirements are duplicated with probability DupRetire to exercise the
// driver's termination-certificate clamp.
type filteredEvents Net

func (f *filteredEvents) net() *Net { return (*Net)(f) }

func (f *filteredEvents) SiteSent(qid uint64, msgs []wire.BatchMsg) {
	// Only the sender's death suppresses here: a message TO a dead site
	// must still be routed and counted in flight — it is dropped at
	// Send, after accounting — so the session visibly hangs instead of
	// quiescing with work missing, exactly like a real silent peer.
	t := f.net()
	msgs = filterRun(msgs, func(m wire.BatchMsg) bool { return !t.dead(int(m.From)) })
	if len(msgs) == 0 {
		return
	}
	t.mu.Lock()
	ev := t.ev
	t.mu.Unlock()
	ev.SiteSent(qid, msgs)
}

func (f *filteredEvents) Retired(qid uint64, site int, busy time.Duration, rounds int64, cum uint64) {
	t := f.net()
	if t.dead(site) {
		return
	}
	dup := false
	t.mu.Lock()
	ev := t.ev
	if t.opts.DupRetire > 0 && t.rng.Float64() < t.opts.DupRetire {
		dup = true
	}
	t.mu.Unlock()
	ev.Retired(qid, site, busy, rounds, cum)
	if dup {
		ev.Retired(qid, site, busy, rounds, cum)
	}
}

func (f *filteredEvents) Fail(qid uint64, err error) {
	t := f.net()
	t.mu.Lock()
	ev := t.ev
	t.mu.Unlock()
	ev.Fail(qid, err)
}
