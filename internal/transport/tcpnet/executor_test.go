package tcpnet

// The batched message path at the socket: the outbox recycles its
// buffers, a daemon retires a drained run with one counted ACKN behind
// the run's own output, and the driver still clamps a forged count.

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"
	"unsafe"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

func TestOutboxSteadyStateAllocatesNothing(t *testing.T) {
	if sz := unsafe.Sizeof(outEntry{}); sz > 64 {
		t.Errorf("outEntry grew to %d bytes; it is sized to a 64-byte cache line", sz)
	}
	o := newOutbox()
	payload := []byte{byte(wire.KindControl)}
	var chunk []outEntry
	cycle := func() {
		for i := 0; i < 64; i++ {
			o.put(outEntry{kind: entryMsg, qid: 1, to: int32(i), data: payload})
		}
		chunk, _ = o.drain(chunk)
	}
	cycle() // grows the first buffer
	cycle() // grows the second; from here the two swap
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state put+drain allocates %.1f times per 64-entry chunk, want 0", allocs)
	}
	for _, e := range chunk[:cap(chunk)][len(chunk):] {
		if e.data != nil {
			t.Fatal("a recycled buffer still pins a written payload")
		}
	}
	// A burst's buffer is not kept.
	for i := 0; i <= maxSpare; i++ {
		o.put(outEntry{kind: entryMsg})
	}
	burst, _ := o.drain(chunk)
	o.put(outEntry{kind: entryMsg})
	o.drain(burst)
	o.put(outEntry{kind: entryMsg})
	if after, _ := o.drain(nil); cap(after) > maxSpare {
		t.Fatalf("a %d-entry burst buffer was kept as the queue", cap(after))
	}
}

// twoSiteWorld is an edgeless two-node, two-fragment deployment: enough
// for protocol sessions, nothing to evaluate.
func twoSiteWorld(t *testing.T) *partition.Fragmentation {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNode("x")
	b.AddNode("x")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := partition.Build(g, []int32{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

const algoGated = "test-gated-reply"

// gatedEntered/gatedGate park algoGated's site inside the Recv of a
// Control{Op: 1}, so the test can queue a run behind it.
var gatedEntered, gatedGate chan struct{}

func init() {
	cluster.RegisterAlgorithm(algoGated, func(cluster.SessionSpec, *partition.Fragment, []int32) (cluster.Handler, error) {
		return cluster.HandlerFunc(func(ctx *cluster.Ctx, _ int, p wire.Payload) {
			if c, ok := p.(*wire.Control); ok && c.Op == 1 {
				gatedEntered <- struct{}{}
				<-gatedGate
			}
			ctx.Send(cluster.Coordinator, &wire.Matches{Frag: uint16(ctx.Self())})
		}), nil
	})
}

// A raw-socket driver against a real Server: n messages queued behind a
// parked site come back as n reply MSGs followed by a single ACKN of
// count n — the run's output precedes its retirement in the byte
// stream, which is what lets the driver's counter certify termination.
func TestRunRetiredByOneAckNBehindItsOutput(t *testing.T) {
	const n = 9
	gatedEntered, gatedGate = make(chan struct{}), make(chan struct{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go (&Server{}).Serve(lis)

	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(c)
	send := func(typ byte, body []byte) {
		t.Helper()
		if _, err := writeFrame(c, 0, typ, body); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want byte) []byte {
		t.Helper()
		typ, body, err := wire.ReadFrame(br)
		if err != nil || typ != want {
			t.Fatalf("read %s (%v), want %s", frameName(typ), err, frameName(want))
		}
		return body
	}
	send(frameHello, appendU16([]byte(helloMagic), ProtocolVersion))
	expect(frameHelloOK)
	send(frameDeploy, deployBodyFor(twoSiteWorld(t), 2, []int{0, 1}))
	expect(frameDeployed)

	const qid = 5
	send(frameOpen, encodeOpen(openBody{qid: qid, spec: cluster.SessionSpec{Algo: algoGated}}))
	send(frameMsg, encodeMsg(msgBody{qid: qid, from: cluster.Coordinator, to: 0, data: wire.Encode(&wire.Control{Op: 1})}))
	<-gatedEntered
	run := make([]outEntry, n)
	for i := range run {
		run[i] = outEntry{kind: entryMsg, from: cluster.Coordinator, to: 0, data: wire.Encode(&wire.Control{})}
	}
	send(frameMsgB, appendMsgBatch(nil, qid, run))
	// The daemon reads frames in order: its PONG proves the run is queued.
	send(framePing, encodePingPong(1))
	expect(framePong)
	close(gatedGate)

	replies, acks := 0, []uint32(nil)
	for len(acks) < 2 {
		typ, body, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("after %d replies and retirements %v: %v", replies, acks, err)
		}
		switch typ {
		case frameMsg:
			replies++
		case frameMsgB:
			_, batch, err := decodeMsgB(body)
			if err != nil {
				t.Fatal(err)
			}
			replies += len(batch.Msgs)
		case frameAck:
			if replies != 1 {
				t.Fatalf("the parked message's ACK arrived after %d replies, want 1", replies)
			}
			acks = append(acks, 1)
		case frameAckN:
			a, err := decodeAckN(body)
			if err != nil {
				t.Fatal(err)
			}
			if a.qid != qid || a.site != 0 || a.count != n {
				t.Fatalf("ACKN = %+v, want one retirement of the whole run of %d at site 0", a, n)
			}
			if replies != 1+n {
				t.Fatalf("the run's ACKN arrived after %d replies; all %d must precede it", replies, 1+n)
			}
			acks = append(acks, a.count)
		default:
			t.Fatalf("unexpected %s", frameName(typ))
		}
	}
	send(frameBye, nil)
}

// A daemon claiming more retirements than were routed to a site — or
// any at a site with nothing outstanding — cannot move the driver's
// termination certificate: the count is clamped to the ledger.
func TestForgedAckNClamped(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	forge := make(chan ackNBody)
	daemonErr := make(chan error, 1)
	go func() {
		daemonErr <- func() error {
			c, err := lis.Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			br := bufio.NewReader(c)
			// HELLO → HELLO-OK, DEPLOY → DEPLOYED; everything the driver
			// sends afterwards sits unread in the socket buffer.
			for _, reply := range []struct {
				typ  byte
				body []byte
			}{{frameHelloOK, appendU16(nil, ProtocolVersion)}, {frameDeployed, nil}} {
				if _, _, err := wire.ReadFrame(br); err != nil {
					return err
				}
				if _, err := writeFrame(c, 0, reply.typ, reply.body); err != nil {
					return err
				}
			}
			for a := range forge {
				if _, err := writeFrame(c, 0, frameAckN, encodeAckN(a)); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	tr, err := Dial(context.Background(), []string{lis.Addr().String()}, twoSiteWorld(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewWithTransport(tr)
	defer cl.Shutdown()
	s, err := cl.OpenSession(cluster.SessionQuery, cluster.SessionSpec{Algo: algoGated}, cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stillRunning := func(when string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := s.WaitQuiesce(ctx); err == nil {
			t.Fatalf("%s: the session certified termination with work outstanding", when)
		}
	}
	quiesces := func(when string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.WaitQuiesce(ctx); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	s.Inject(0, &wire.Control{})
	s.Inject(0, &wire.Control{})
	forge <- ackNBody{qid: s.ID(), site: 1, count: 1000}
	stillRunning("after 1000 retirements at a site nothing was routed to")
	forge <- ackNBody{qid: s.ID(), site: 0, count: 1000}
	quiesces("after an over-count at the site holding the 2 messages")
	// Had the over-count leaked, the counter would be negative and no
	// later window could close either.
	s.Inject(1, &wire.Control{})
	stillRunning("second window, message unacknowledged")
	forge <- ackNBody{qid: s.ID(), site: 1, count: 1}
	quiesces("second window")
	close(forge)
	if err := <-daemonErr; err != nil {
		t.Fatalf("fake daemon: %v", err)
	}
}
