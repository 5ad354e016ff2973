package serve

// Admission-control semantics: concurrency is bounded, the waiting
// queue is bounded, and beyond both the gateway sheds immediately —
// overload produces fast explicit rejections, not unbounded latency.

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestGateUnit(t *testing.T) {
	g := newGate(2, 1)
	ctx := context.Background()
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if g.inFlight() != 2 {
		t.Fatalf("inFlight %d, want 2", g.inFlight())
	}

	// Third acquire queues; poll until it is visibly waiting.
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for g.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Fourth is beyond the queue bound: shed immediately.
	start := time.Now()
	if err := g.acquire(ctx); !errors.Is(err, ErrOverload) {
		t.Fatalf("over-queue acquire: %v, want ErrOverload", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("overload rejection took %v — not immediate", d)
	}

	// With the queue still occupied, another arrival sheds too.
	if err := g.acquire(ctx); !errors.Is(err, ErrOverload) {
		t.Fatalf("second over-queue acquire: %v, want ErrOverload", err)
	}

	// Releasing a slot admits the queued waiter.
	g.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	g.release()
	g.release()
	if g.inFlight() != 0 || g.queueDepth() != 0 {
		t.Fatalf("gate not drained: inFlight=%d queue=%d", g.inFlight(), g.queueDepth())
	}
}

func TestGateQueuedDeadline(t *testing.T) {
	g := newGate(1, 4)
	ctx := context.Background()
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := g.acquire(dctx); err != context.DeadlineExceeded {
		t.Fatalf("queued waiter past deadline: %v, want DeadlineExceeded", err)
	}
	g.release()
}

// TestOverloadSheds drives the whole server past its capacity: with one
// execution slot — held by the test — and a one-deep queue, a burst of
// queries must produce explicit ErrOverload rejections at once, while
// the one admitted query still completes correctly once the slot frees.
func TestOverloadSheds(t *testing.T) {
	w := newWorld(t, Options{MaxInFlight: 1, MaxQueue: 1})
	ctx := context.Background()
	if err := w.srv.gate.acquire(ctx); err != nil {
		t.Fatal(err)
	}

	const burst = 8
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			// NoCache: no coalescing, every query wants its own slot.
			_, err := w.srv.Query(ctx, QueryRequest{Pattern: "node a l0\nnode b l1\nedge a b\n", NoCache: true})
			errs <- err
		}()
	}
	// Every query but the queued one is shed while the slot is still held.
	for i := 0; i < burst-1; i++ {
		if err := <-errs; !errors.Is(err, ErrOverload) {
			t.Fatalf("query past capacity: err = %v, want ErrOverload", err)
		}
	}
	if d := w.srv.gate.queueDepth(); d != 1 {
		t.Fatalf("queue depth %d with the slot held, want 1", d)
	}
	w.srv.gate.release()
	if err := <-errs; err != nil {
		t.Fatalf("the queued query failed: %v", err)
	}
	if c := w.srv.Counters(); c.Rejected != burst-1 {
		t.Fatalf("Rejected counter %d, want %d", c.Rejected, burst-1)
	}
}
