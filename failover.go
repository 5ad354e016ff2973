package dgs

// Fault tolerance: surviving the loss of a site (a dgsd daemon, or a
// killed site under fault injection) without tearing the deployment
// down. The transport detects the loss (TCP: heartbeat timeout or a
// failed socket op; faultnet: a scripted kill) and suspends the cluster
// with an error wrapping cluster.ErrSiteLost — in-flight queries fail
// with the retryable ErrSiteLost, new operations fail fast. Recovery
// re-ships the lost fragments from the driver's retained state (spare
// daemon first, else a redeploy-capable survivor), resumes the cluster,
// and re-evaluates the one shared standing-query session, which every
// Maintained handle reads. With WithHeartbeat or
// WithSpareSites configured, recovery runs automatically on detection;
// Recover triggers it manually. See DESIGN.md §"Fault tolerance".

import (
	"context"
	"errors"
	"time"

	"dgs/internal/cluster"
)

// ErrSiteLost marks an operation aborted because a site was lost
// mid-flight — a daemon crashed, its connection died, or fault
// injection killed it. Unlike ErrClosed it is retryable: once the
// deployment recovers (automatically, or via Recover), the same call
// succeeds against the restored graph. Returned wrapped; test with
// errors.Is.
var ErrSiteLost = errors.New("site lost")

// WithSpareSites lists standby dgsd daemons for a WithRemoteSites
// deployment. Spares host nothing at Deploy time; when a serving daemon
// is lost, recovery dials the next spare and ships it the lost
// fragments (falling back to doubling up on a survivor when no spare is
// left). Listing spares also enables automatic recovery on loss
// detection.
func WithSpareSites(addrs ...string) DeployOption {
	return func(dc *deployConfig) { dc.spares = append(dc.spares, addrs...) }
}

// WithHeartbeat enables the driver→daemon liveness probe of a
// WithRemoteSites deployment: every interval each idle connection is
// PINGed, and one silent for misses consecutive intervals (misses <= 0
// means 3) is declared lost after a dial-back probe. Detection feeds
// automatic recovery. Without this option a loss still surfaces — on
// the next socket operation instead of within misses×interval.
func WithHeartbeat(interval time.Duration, misses int) DeployOption {
	return func(dc *deployConfig) { dc.hbInterval = interval; dc.hbMisses = misses }
}

// publicErr translates a cluster-layer failure into the deployment's
// public sentinels so callers can test with errors.Is against the dgs
// vocabulary instead of reaching into internal packages.
func publicErr(err error) error {
	switch {
	case errors.Is(err, cluster.ErrSiteLost):
		return errorf("%v: %w", err, ErrSiteLost)
	case errors.Is(err, cluster.ErrClosed):
		return errorf("%v: %w", err, ErrClosed)
	default:
		return err
	}
}

// bindFailover wires loss detection to the deployment after its cluster
// is built: autoRecover reflects whether the caller opted into
// automatic failover (spares or heartbeat configured).
func (d *Deployment) bindFailover(autoRecover bool) {
	d.autoRecover = autoRecover
	ln, ok := d.c.Transport().(cluster.LossNotifier)
	if !ok {
		return
	}
	// The callback runs on the transport's detection path and must not
	// block; recovery proceeds on its own goroutine. Without
	// autoRecover the loss only suspends the cluster — operations fail
	// fast with ErrSiteLost until Recover is called (chaos tests rely
	// on this to keep scripted schedules deterministic).
	ln.OnSiteLoss(func(err error) {
		if !d.autoRecover {
			return
		}
		go d.autoRecoverLoop()
	})
}

// autoRecoverLoop drives automatic recovery with bounded retries; if
// recovery is impossible (no spare and no redeploy-capable survivor,
// daemons unreachable), the deployment is poisoned so waiters see a
// permanent failure instead of an indefinite suspension.
func (d *Deployment) autoRecoverLoop() {
	const tries = 3
	var err error
	for i := 0; i < tries; i++ {
		if i > 0 {
			time.Sleep(time.Duration(i) * 500 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = d.Recover(ctx)
		cancel()
		if err == nil || errors.Is(err, ErrClosed) {
			return
		}
	}
	// Deliberately not wrapping ErrSiteLost: a non-recoverable cause
	// kills the cluster for good rather than re-suspending it.
	d.c.Fail(0, errorf("failover: recovery failed after %d attempts: %v", tries, err))
}

// Recover re-establishes a full serving substrate after site loss: the
// lost fragments are re-shipped from the driver's retained state (a
// spare daemon if available, else doubled up on a survivor), the
// cluster resumes, and every standing query re-registers by
// re-evaluation. If an Apply batch was interrupted by the loss, every
// site's fragments are re-shipped so partial mutations cannot survive.
// No-op when nothing is lost. Safe to call concurrently with queries
// (they serialize behind the graph lock) and with automatic recovery.
func (d *Deployment) Recover(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return errorf("recover: %w", ErrClosed)
	}
	rec, ok := d.c.Transport().(cluster.Recoverer)
	if !ok {
		return errorf("recover: transport %T cannot recover lost sites", d.c.Transport())
	}
	d.recoverMu.Lock()
	defer d.recoverMu.Unlock()
	// Exclusive graph access: no query may run while fragments are in
	// transit, and the driver's fragmentation must not move under the
	// shipment.
	d.state.Lock()
	suspended, _ := d.c.Suspended()
	if !suspended && len(rec.Lost()) == 0 {
		d.state.Unlock()
		return nil
	}
	full := d.applyInterrupted
	if err := rec.Recover(ctx, d.part.fr, full); err != nil {
		d.state.Unlock()
		return errorf("recover: %w", publicErr(err))
	}
	d.applyInterrupted = false
	d.c.Resume()
	d.failovers.Add(1)
	d.state.Unlock()

	// The standing queries lost their maintenance session with the site:
	// re-evaluate it once against the recovered graph; every handle reads
	// the re-evaluated shard.
	d.state.RLock()
	defer d.state.RUnlock()
	if err := d.shard.reevaluate(ctx); err != nil {
		return errorf("recover: standing query re-registration: %w", publicErr(err))
	}
	return nil
}

// Failovers reports how many recoveries this deployment has completed —
// the observable trace of kills survived. Exposed by the gateway's
// /stats.
func (d *Deployment) Failovers() int64 { return d.failovers.Load() }
