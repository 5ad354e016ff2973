package tcpnet

// The daemon side: a Server hosts fragments shipped by a driver and runs
// their site actors for the lifetime of one connection. cmd/dgsd wraps
// this in a binary; tests run it in-process against a loopback listener
// (the code path is identical).

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// Server hosts one deployment at a time: accept → handshake → DEPLOY →
// serve sessions until the driver says BYE or the connection drops →
// reset and accept the next driver. Which algorithms it can serve is
// decided at build time by the cluster registry (cmd/dgsd imports every
// algorithm package).
type Server struct {
	// Logf receives connection lifecycle lines; nil silences them.
	Logf func(format string, args ...any)

	// counters are the daemon's running totals, maintained always and
	// exported when RegisterMetrics was called. Plain int64s driven by
	// the sync/atomic functions (not atomic.Int64) so the pre-Serve
	// by-value Server copies tests make stay vet-clean.
	counters struct {
		connections int64
		sessions    int64
		framesIn    int64
		framesOut   int64
		traces      int64
	}
}

// RegisterMetrics exposes the daemon's counters on reg (serve them with
// obs.Handler, as `dgsd -metrics` does). Call before Serve, once per
// registry.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("dgsd_connections_total",
		"Driver connections accepted over the daemon's lifetime.",
		func() float64 { return float64(atomic.LoadInt64(&s.counters.connections)) })
	reg.CounterFunc("dgsd_sessions_total",
		"Sessions opened across all driver connections.",
		func() float64 { return float64(atomic.LoadInt64(&s.counters.sessions)) })
	reg.CounterFunc("dgsd_frames_in_total",
		"Frames read from drivers after deployment.",
		func() float64 { return float64(atomic.LoadInt64(&s.counters.framesIn)) })
	reg.CounterFunc("dgsd_frames_out_total",
		"Frames written to drivers after deployment.",
		func() float64 { return float64(atomic.LoadInt64(&s.counters.framesOut)) })
	reg.CounterFunc("dgsd_traces_total",
		"TRACE frames shipped for traced sessions.",
		func() float64 { return float64(atomic.LoadInt64(&s.counters.traces)) })
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts drivers on lis until the listener closes. Connections
// are served one at a time — a dgsd daemon backs exactly one deployment,
// matching one EC2 instance in the paper's setup.
func (s *Server) Serve(lis net.Listener) error {
	for {
		c, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		atomic.AddInt64(&s.counters.connections, 1)
		s.logf("dgsd: driver connected from %s", c.RemoteAddr())
		s.handle(c)
		s.logf("dgsd: driver %s gone, state reset", c.RemoteAddr())
	}
}

// ListenAndServe listens on addr and Serves.
func ListenAndServe(addr string, s *Server) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.Logf == nil {
		s.Logf = log.Printf
	}
	s.logf("dgsd: listening on %s (protocol v%d, algorithms %v)",
		lis.Addr(), ProtocolVersion, cluster.RegisteredAlgorithms())
	return s.Serve(lis)
}

// daemonSink adapts SiteHost upcalls onto the connection: handler sends
// become MSGB frames to the driver (hub routing), a retired run becomes
// one ACKN carrying the site's cumulative count, and protocol corruption
// becomes a deployment ERR.
type daemonSink struct {
	out *cluster.Queue[outEntry]
}

func (k *daemonSink) ForwardSend(qid uint64, from, to int, data []byte) {
	k.out.Put(outEntry{kind: entryMsg, qid: qid, from: int32(from), to: int64(to), data: data})
}

func (k *daemonSink) Retire(qid uint64, site int, busy time.Duration, rounds int64, cum uint64) {
	k.out.Put(outEntry{kind: entryAck, qid: qid, from: int32(site), to: int64(cum), busyNs: int64(busy), rounds: rounds})
}

func (k *daemonSink) Fatal(err error) {
	k.out.Put(outEntry{kind: entryFrame, data: wire.AppendFrame(nil, frameErr, encodeErr(errBody{qid: 0, msg: err.Error()}))})
	k.out.Close()
}

// decodeFragSet decodes and validates a DEPLOY/REDEPLOY body's hosted
// fragments; a non-empty second return is the refusal reason.
// DecodeFragment checks each fragment's own structure; here the
// fragments are checked against the deployment. The label check catches
// a skewed shipment: every label id a fragment carries must resolve in
// the driver's shipped dictionary, turning a would-be silent mismatch
// into an explicit refusal. Every node a fragment sees must be in the
// owner directory, and every owner and watcher must be a site of the
// deployment: the sites index by all three.
func decodeFragSet(dep deployBody) (map[int]*partition.Fragment, string) {
	frags := make(map[int]*partition.Fragment, len(dep.hosted))
	rest := dep.frags
	var err error
	for _, id := range dep.hosted {
		var f *partition.Fragment
		f, rest, err = partition.DecodeFragment(rest)
		if err != nil {
			return nil, fmt.Sprintf("bad fragment for site %d: %v", id, err)
		}
		if f.ID != id {
			return nil, fmt.Sprintf("fragment %d shipped in site %d's slot", f.ID, id)
		}
		frags[id] = f
	}
	if len(rest) != 0 {
		return nil, fmt.Sprintf("%d trailing bytes after fragments", len(rest))
	}
	for id, f := range frags {
		for v, l := range f.Labels {
			if int(l) >= len(dep.labels) {
				return nil, fmt.Sprintf("fragment %d carries label id %d outside the %d-entry dictionary", id, l, len(dep.labels))
			}
			if int(v) >= len(dep.assign) {
				return nil, fmt.Sprintf("fragment %d sees node %d outside the %d-node owner directory", id, v, len(dep.assign))
			}
		}
		for v, o := range f.Owner {
			if o >= dep.total {
				return nil, fmt.Sprintf("fragment %d names site %d, of %d, as the owner of %d", id, o, dep.total, v)
			}
		}
		for v, ws := range f.InWatchers {
			// Decoded watcher lists are non-empty and ascending.
			if w := ws[len(ws)-1]; w >= dep.total {
				return nil, fmt.Sprintf("fragment %d names site %d, of %d, as a watcher of %d", id, w, dep.total, v)
			}
		}
	}
	return frags, ""
}

func (s *Server) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 1<<16)

	refuse := func(why string) {
		if _, err := writeFrame(c, writeTimeout, frameErr, encodeErr(errBody{qid: 0, msg: why})); err != nil {
			// The explanatory ERR never reached the driver; all that is
			// left is tearing the connection down (the deferred Close)
			// so the peer sees a reset instead of waiting forever.
			s.logf("dgsd: refusal of %s did not reach the driver: %v", c.RemoteAddr(), err)
		}
		s.logf("dgsd: refused driver %s: %s", c.RemoteAddr(), why)
	}

	// HELLO: magic + the driver's protocol version, before anything
	// else. Any version but this build's is refused here, before DEPLOY
	// is read.
	c.SetReadDeadline(time.Now().Add(writeTimeout))
	typ, body, err := wire.ReadFrame(br)
	if err != nil || typ != frameHello {
		refuse("expected HELLO")
		return
	}
	if len(body) != len(helloMagic)+2 || string(body[:len(helloMagic)]) != helloMagic {
		refuse("bad HELLO magic — is this a dgs driver?")
		return
	}
	v, _ := wire.NewByteReader(body[len(helloMagic):]).U16()
	if v != ProtocolVersion {
		refuse(fmt.Sprintf("protocol version mismatch: driver speaks %d, daemon speaks %d", v, ProtocolVersion))
		return
	}
	// Confirm immediately: the driver withholds the (large) DEPLOY until
	// it has seen HELLO-OK, so a refusal never costs a fragment shipment.
	if _, err := writeFrame(c, writeTimeout, frameHelloOK, appendU16(nil, ProtocolVersion)); err != nil {
		s.logf("dgsd: HELLO-OK to %s failed: %v", c.RemoteAddr(), err)
		return
	}

	// DEPLOY: become the sites.
	typ, body, err = wire.ReadFrame(br)
	if err != nil || typ != frameDeploy {
		refuse("expected DEPLOY after HELLO")
		return
	}
	dep, err := decodeDeploy(body)
	if err != nil {
		refuse("bad DEPLOY: " + err.Error())
		return
	}
	frags, why := decodeFragSet(dep)
	if why != "" {
		refuse(why)
		return
	}

	out := cluster.NewQueue[outEntry]()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		meter := func(uint64, int) { atomic.AddInt64(&s.counters.framesOut, 1) }
		if err := writeLoop(c, out, meter); err != nil {
			// Sever the connection: a driver waiting on our ACKNs would
			// otherwise never learn its frames stopped flowing (it has no
			// reason to close first), and its sessions would hang. Closing
			// makes the driver's readLoop fail the deployment; our read
			// loop unblocks and resets. Then drain silently.
			c.Close()
			for ok := true; ok; {
				_, ok = out.Drain(nil)
			}
		}
	}()

	sink := &daemonSink{out: out}
	host := cluster.NewSiteHost(dep.total, dep.hosted, frags, dep.assign, cluster.Network{}, sink)

	out.Put(outEntry{kind: entryFrame, data: wire.AppendFrame(nil, frameDeployed, nil)})
	s.logf("dgsd: v%d, hosting %d/%d sites, %d-node assign directory, %d-label dict",
		ProtocolVersion, len(dep.hosted), dep.total, len(dep.assign), len(dep.labels))

	// Serve frames until BYE or disconnect. No read deadline: a deployed
	// daemon waits indefinitely for its driver's next query.
	c.SetReadDeadline(time.Time{})
	sessions := 0
	for {
		typ, body, err := wire.ReadFrame(br)
		if err != nil {
			s.logf("dgsd: driver read: %v", err)
			break
		}
		atomic.AddInt64(&s.counters.framesIn, 1)
		errOut := func(qid uint64, msg string) {
			out.Put(outEntry{kind: entryFrame, data: wire.AppendFrame(nil, frameErr, encodeErr(errBody{qid: qid, msg: msg}))})
		}
		switch typ {
		case frameOpen:
			o, err := decodeOpen(body)
			if err != nil {
				errOut(0, "bad OPEN: "+err.Error())
				continue
			}
			if err := host.Open(o.qid, o.kind, o.spec); err != nil {
				errOut(o.qid, err.Error())
				continue
			}
			sessions++
			atomic.AddInt64(&s.counters.sessions, 1)
		case frameMsgB:
			qid, batch, err := decodeMsgB(body)
			if err != nil {
				errOut(0, "bad MSGB: "+err.Error())
				continue
			}
			// Sub-message Data aliases the frame buffer, which is not
			// reused, so enqueueing the slices directly is safe — the
			// zero-copy unpack of a coalesced frame.
			for _, m := range batch.Msgs {
				host.Enqueue(qid, int(m.From), int(m.To), m.Data)
			}
		case frameClose:
			qid, err := wire.NewByteReader(body).U64()
			if err == nil {
				host.CloseSession(qid)
				// A traced session owes the driver its spans, chasing the
				// close on the same connection. Even an empty snapshot is
				// shipped: the driver counts one TRACE per connection.
				if spans, traced := host.TakeTrace(qid); traced {
					out.Put(outEntry{kind: entryFrame, data: wire.AppendFrame(nil, frameTrace, encodeTrace(qid, spans))})
					atomic.AddInt64(&s.counters.traces, 1)
				}
			}
		case framePing:
			seq, err := decodePingPong(body)
			if err != nil {
				errOut(0, "bad PING: "+err.Error())
				goto done
			}
			out.Put(outEntry{kind: entryFrame, data: wire.AppendFrame(nil, framePong, encodePingPong(seq))})
		case frameRedeploy:
			red, err := decodeDeploy(body)
			if err != nil {
				errOut(0, "bad REDEPLOY: "+err.Error())
				goto done
			}
			more, why := decodeFragSet(red)
			if why != "" {
				errOut(0, "bad REDEPLOY: "+why)
				goto done
			}
			// Absorb a lost peer's sites (or replace our own fragments on
			// a full re-deployment); the DEPLOYED reply tells the driver
			// they are resident. FIFO on this connection orders any later
			// session traffic for these sites after the installation.
			host.AddSites(red.hosted, more)
			out.Put(outEntry{kind: entryFrame, data: wire.AppendFrame(nil, frameDeployed, nil)})
			s.logf("dgsd: redeploy absorbed %d sites (now hosting %d/%d)", len(red.hosted), len(host.HostedIDs()), dep.total)
		case frameBye:
			s.logf("dgsd: driver said BYE after %d sessions", sessions)
			goto done
		default:
			errOut(0, "unexpected "+frameName(typ))
			goto done
		}
	}
done:
	host.Shutdown()
	out.Close()
	<-writerDone
}
