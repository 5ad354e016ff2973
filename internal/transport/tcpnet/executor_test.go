package tcpnet

// The batched message path at the socket: a connection's queue recycles
// its buffers, a daemon retires a drained run with one ACKN behind the
// run's own output, the driver still clamps a forged count, and the
// retired MSG/ACK type bytes are refused on both ends.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// A connection's queue is cluster.Queue over 64-byte entries; its burst
// rule is held in internal/cluster.
func TestOutboxSteadyStateAllocatesNothing(t *testing.T) {
	if sz := unsafe.Sizeof(outEntry{}); sz > 64 {
		t.Errorf("outEntry grew to %d bytes; it is sized to a 64-byte cache line", sz)
	}
	o := cluster.NewQueue[outEntry](connSpare)
	payload := []byte{byte(wire.KindControl)}
	var chunk []outEntry
	cycle := func() {
		for i := 0; i < 64; i++ {
			o.Put(outEntry{kind: entryMsg, qid: 1, to: int64(i), data: payload})
		}
		chunk, _ = o.Drain(chunk)
	}
	cycle() // grows the first buffer
	cycle() // grows the second; from here the two swap
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state Put+Drain allocates %.1f times per 64-entry chunk, want 0", allocs)
	}
	for _, e := range chunk[:cap(chunk)][len(chunk):] {
		if e.data != nil {
			t.Fatal("a recycled buffer still pins a written payload")
		}
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

// rawDriver connects a raw-socket driver to a real Server and deploys
// twoSiteWorld on it: send writes a frame, expect reads the next one and
// fails the test unless it has type want.
func rawDriver(t *testing.T) (send func(typ byte, body []byte), expect func(want byte) []byte, br *bufio.Reader) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go (&Server{}).Serve(lis)

	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(20 * time.Second))
	br = bufio.NewReader(c)
	send = func(typ byte, body []byte) {
		t.Helper()
		if _, err := writeFrame(c, 0, typ, body); err != nil {
			t.Fatal(err)
		}
	}
	expect = func(want byte) []byte {
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
	return send, expect, br
}

// A raw-socket driver against a real Server: n messages queued behind a
// parked site come back as n replies followed by a single ACKN raising
// the site's count by n — the run's output precedes its retirement in
// the byte stream, which is what lets the driver's counter certify
// termination.
func TestRunRetiredByOneAckNBehindItsOutput(t *testing.T) {
	const n = 9
	gatedEntered, gatedGate = make(chan struct{}), make(chan struct{})
	send, expect, br := rawDriver(t)

	const qid = 5
	send(frameOpen, encodeOpen(openBody{qid: qid, spec: cluster.SessionSpec{Algo: algoGated}}))
	msgB := func(msgs ...wire.BatchMsg) []byte {
		return append(appendU64(nil, qid), wire.Encode(&wire.Batch{Msgs: msgs})...)
	}
	send(frameMsgB, msgB(wire.BatchMsg{From: cluster.Coordinator, To: 0, Data: wire.Encode(&wire.Control{Op: 1})}))
	<-gatedEntered
	run := make([]wire.BatchMsg, n)
	for i := range run {
		run[i] = wire.BatchMsg{From: cluster.Coordinator, To: 0, Data: wire.Encode(&wire.Control{})}
	}
	send(frameMsgB, msgB(run...))
	// The daemon reads frames in order: its PONG proves the run is queued.
	send(framePing, encodePingPong(1))
	expect(framePong)
	close(gatedGate)

	// Two ACKNs: the parked message (cumulative count 1) behind its one
	// reply, then the whole run (count 1+n) behind all of its replies.
	replies, acks := 0, []uint64(nil)
	for len(acks) < 2 {
		typ, body, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("after %d replies and retirements %v: %v", replies, acks, err)
		}
		switch typ {
		case frameMsgB:
			_, batch, err := decodeMsgB(body)
			if err != nil {
				t.Fatal(err)
			}
			replies += len(batch.Msgs)
		case frameAckN:
			a, err := decodeAckN(body)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(1)
			if len(acks) == 1 {
				want = 1 + n
			}
			if a.qid != qid || a.site != 0 || a.count != want {
				t.Fatalf("ACKN = %+v, want site 0's cumulative count %d", a, want)
			}
			if uint64(replies) != want {
				t.Fatalf("the ACKN of count %d arrived after %d replies; all %d must precede it", want, replies, want)
			}
			acks = append(acks, a.count)
		default:
			t.Fatalf("unexpected %s", frameName(typ))
		}
	}
	send(frameBye, nil)
}

// The version-7 MSG frame type (0x07) is gone: a daemon refuses it like
// any unknown type, with a deployment ERR, and hangs up.
func TestDaemonRefusesRetiredMsgFrame(t *testing.T) {
	send, expect, br := rawDriver(t)
	msg := appendI32(appendI32(appendU64(nil, 5), cluster.Coordinator), 0)
	send(0x07, append(msg, wire.Encode(&wire.Control{})...))
	if e, err := decodeErr(expect(frameErr)); err != nil || e.qid != 0 {
		t.Fatalf("refusal = %+v (%v), want a deployment ERR", e, err)
	}
	if _, _, err := wire.ReadFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("after the refusal the daemon kept the connection (read: %v)", err)
	}
}

// The version-7 ACK frame type (0x08) is gone: a driver that reads one
// fails the deployment as protocol corruption — not a retryable site
// loss.
func TestDriverFailsOnRetiredAckFrame(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for _, reply := range []struct {
			typ  byte
			body []byte
		}{{frameHelloOK, appendU16(nil, ProtocolVersion)}, {frameDeployed, nil}} {
			if _, _, err := wire.ReadFrame(br); err != nil {
				return
			}
			writeFrame(c, 0, reply.typ, reply.body)
		}
		ack := appendU64(appendU64(appendI32(appendU64(nil, 1), 0), 0), 0)
		writeFrame(c, 0, 0x08, ack)
		io.Copy(io.Discard, br) // until the driver hangs up
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
	s.Inject(0, &wire.Control{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = s.WaitQuiesce(ctx)
	if err == nil || errors.Is(err, cluster.ErrSiteLost) || !strings.Contains(err.Error(), "unexpected frame(0x8)") {
		t.Fatalf("WaitQuiesce after an ACK frame = %v, want the deployment failed on frame 0x8", err)
	}
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
