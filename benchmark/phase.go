package main

// One timed phase: the load loop (closed, one client; or open, a fixed
// rate over two connections) and the bookkeeping around it — CPU and
// memory of every owned process, socket frames, the gateway's counters.

import (
	"context"
	"sync"
	"time"

	"dgs/internal/serve"
)

// phase is what a timed phase observed.
type phase struct {
	results []result
	start   time.Time
	elapsed time.Duration
	// cpu is the CPU the owned processes spent during the phase; peakRSSMB
	// their summed high-water marks at its end.
	cpu       usage
	peakRSSMB float64
	// frames is the Deployment.WireFrames delta (sent + received); gw the
	// gateway's /stats delta.
	frames int64
	gw     serve.Counters
}

// dueTime is the open loop's clock: op i is due i intervals after the
// phase starts, whatever happened to the ops before it.
func dueTime(i int, rateHz float64) time.Duration {
	return time.Duration(float64(i) / rateHz * float64(time.Second))
}

// runPhase issues ops against sys for the given time (closed loop) or
// until the stream is through (open loop: the stream is rate × seconds
// long).
func runPhase(ctx context.Context, sys *system, ops []op, seconds float64) (*phase, error) {
	ph := &phase{}
	before, err := sys.h.usageNow()
	if err != nil {
		return nil, err
	}
	var gwBefore serve.Counters
	if sys.dep == nil {
		if gwBefore, err = sys.gatewayCounters(); err != nil {
			return nil, err
		}
	}
	framesBefore := sys.frames()

	ph.start = time.Now()
	if rate := sys.in.spec.RateHz; rate > 0 {
		ph.results = runOpen(ctx, sys, ops, rate, ph.start)
	} else {
		ph.results = runClosed(ctx, sys, ops, time.Duration(seconds*float64(time.Second)), ph.start)
	}
	ph.elapsed = time.Since(ph.start)

	after, err := sys.h.usageNow()
	if err != nil {
		return nil, err
	}
	ph.cpu = usage{
		selfCPU:    after.selfCPU - before.selfCPU,
		daemonCPU:  after.daemonCPU - before.daemonCPU,
		gatewayCPU: after.gatewayCPU - before.gatewayCPU,
	}
	ph.peakRSSMB = after.peakRSSMB
	ph.frames = sys.frames() - framesBefore
	if sys.dep == nil {
		gwAfter, err := sys.gatewayCounters()
		if err != nil {
			return nil, err
		}
		ph.gw = serve.Counters{
			Queries:   gwAfter.Queries - gwBefore.Queries,
			Hits:      gwAfter.Hits - gwBefore.Hits,
			Misses:    gwAfter.Misses - gwBefore.Misses,
			Coalesced: gwAfter.Coalesced - gwBefore.Coalesced,
			Rejected:  gwAfter.Rejected - gwBefore.Rejected,
			Deadline:  gwAfter.Deadline - gwBefore.Deadline,
			Errors:    gwAfter.Errors - gwBefore.Errors,
			Applies:   gwAfter.Applies - gwBefore.Applies,
		}
	}
	return ph, nil
}

// frames reports the driver's socket frames so far, both directions.
func (sys *system) frames() int64 {
	if sys.dep == nil {
		return 0
	}
	sent, received := sys.dep.WireFrames()
	return sent + received
}

// runClosed is one client issuing the next op when the previous one
// completed, until the time is up.
func runClosed(ctx context.Context, sys *system, ops []op, d time.Duration, start time.Time) []result {
	var out []result
	for i, o := range ops {
		due := time.Since(start)
		if due >= d || ctx.Err() != nil {
			break
		}
		r := sys.do(ctx, o)
		r.Op, r.Due, r.Sent, r.End = i, due, due, time.Since(start)
		out = append(out, r)
	}
	return out
}

// runOpen hands op i to a connection at dueTime(i) whether or not earlier
// ops have completed. The load has two connections, so an op whose due
// time finds both busy waits for one; that wait is the system's doing and
// is charged to the op's latency, which counts from the due time. What
// the generator itself adds — waking late for an op it was free to issue
// — is the op's Lag, the number the run's validity is judged by.
func runOpen(ctx context.Context, sys *system, ops []op, rateHz float64, start time.Time) []result {
	out := make([]result, len(ops))
	lag := make([]time.Duration, len(ops))
	next := make(chan int) // unbuffered: a hand-over means a connection is free
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sent := time.Since(start)
				r := sys.do(ctx, ops[i])
				r.Op, r.Due, r.Sent, r.End = i, dueTime(i, rateHz), sent, time.Since(start)
				out[i] = r // each index is written by exactly one worker
			}
		}()
	}
	issued := 0
	var free time.Duration // when the generator finished handing the previous op over
issue:
	for i := range ops {
		due := dueTime(i, rateHz)
		if wait := due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break issue
			}
		}
		lag[i] = time.Since(start) - max(due, free)
		select {
		case next <- i:
			issued++
			free = time.Since(start)
		case <-ctx.Done():
			break issue
		}
	}
	close(next)
	// The workers write into out, so they must have finished before it is
	// read; each is bounded by its op's timeout and by ctx.
	wg.Wait() //lint:allow ctxblock — see above
	for i := range out[:issued] {
		out[i].Lag = lag[i]
	}
	return out[:issued]
}
