// Package tcpnet is the TCP backend of the cluster Transport: the same
// sessions the in-process backend serves, but with the worker sites
// living in dgsd daemon processes and every message crossing a real
// socket as a length-prefixed internal/wire frame. docs/WIRE.md is the
// normative description of the protocol this package implements.
//
// Topology: the driver holds one long-lived connection per daemon and
// routes ALL traffic — even site-to-site messages between two sites of
// the same daemon pass through the driver. This hub routing is what
// preserves the runtime's termination guarantee across process
// boundaries. The driver increments its per-session in-flight counter
// when a message enters the network (it sends one, or one arrives in a
// MSGB frame) and decrements it when the processing daemon's ACKN
// arrives — one ACKN per drained run of a site's mailbox, carrying the
// site's cumulative retired count. A daemon writes a run's output frames
// before the run's ACKN on the same FIFO connection, so the counter can
// never hit zero while work is outstanding. Hub routing also makes the
// driver the natural metering point: Stats.WireBytes on this backend is
// the measured frame bytes (headers included) that crossed the driver's
// sockets for the session. The price is a driver hop on site-to-site
// messages; direct daemon-to-daemon links are future work and would
// need a distributed termination protocol.
//
// Connection lifecycle: dial (context-aware) → HELLO/HELLO-OK version
// check → DEPLOY fragment shipping → DEPLOYED → any number of
// sessions (OPEN/MSGB/ACKN/CLOSE) → BYE → TCP close. A daemon serves one
// deployment at a time and resets when the driver disconnects. Errors
// travel as ERR frames: qid-scoped ones kill a session, qid-0 ones kill
// the deployment. Writes never block protocol progress — each
// connection's frames pass through an unbounded cluster.Queue drained by
// one writer goroutine (writeLoop, the same on both ends), which rules
// out the distributed write-deadlock of mutually full TCP buffers.
package tcpnet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/obs"
	"dgs/internal/wire"
)

// ProtocolVersion is the one protocol this build speaks. Driver and
// daemons are built from the same tree, so HELLO is a strict equality
// check: the driver offers this value, the daemon refuses any other
// with an ERR naming both numbers, and the driver refuses a HELLO-OK
// that echoes anything else. Bump it on any frame-layout change.
const ProtocolVersion uint16 = 10

// writeTimeout bounds each frame write after the handshake, on both
// ends: a stalled peer fails the deployment instead of wedging it.
const writeTimeout = 30 * time.Second

// dialTimeout bounds each TCP connect + handshake + fragment shipment
// when the Dial (or Recover) context carries no earlier deadline.
const dialTimeout = 30 * time.Second

// helloMagic opens every HELLO body so that a stray connection to the
// wrong port fails fast and explicitly.
const helloMagic = "DGSN"

// Frame types (the byte after the length prefix; see docs/WIRE.md).
// 0x07 and 0x08 (MSG and ACK up to version 7) are retired: they are
// refused like any unknown type.
const (
	frameHello    = 0x01 // driver→daemon: magic, protocol version
	frameHelloOK  = 0x02 // daemon→driver: accepted version
	frameDeploy   = 0x03 // driver→daemon: assign directory + hosted fragments
	frameDeployed = 0x04 // daemon→driver: fragments resident
	frameOpen     = 0x05 // driver→daemon: open session qid from spec
	frameClose    = 0x06 // driver→daemon: discard session qid
	frameErr      = 0x09 // daemon→driver: session (qid) or deployment (0) error
	frameBye      = 0x0A // driver→daemon: graceful goodbye
	frameMsgB     = 0x0B // both ways: a run of payloads of one session
	frameAckN     = 0x0C // daemon→driver: a site's cumulative retired count, busy/rounds
	framePing     = 0x0D // driver→daemon: liveness probe (u64 seq)
	framePong     = 0x0E // daemon→driver: echo of a PING's seq
	frameRedeploy = 0x0F // driver→daemon: host additional sites (deployBody); daemon replies DEPLOYED
	frameTrace    = 0x10 // daemon→driver: a closed traced session's per-round spans
)

func frameName(t byte) string {
	switch t {
	case frameHello:
		return "HELLO"
	case frameHelloOK:
		return "HELLO-OK"
	case frameDeploy:
		return "DEPLOY"
	case frameDeployed:
		return "DEPLOYED"
	case frameOpen:
		return "OPEN"
	case frameClose:
		return "CLOSE"
	case frameErr:
		return "ERR"
	case frameBye:
		return "BYE"
	case frameMsgB:
		return "MSGB"
	case frameAckN:
		return "ACKN"
	case framePing:
		return "PING"
	case framePong:
		return "PONG"
	case frameRedeploy:
		return "REDEPLOY"
	case frameTrace:
		return "TRACE"
	default:
		return fmt.Sprintf("frame(%#x)", t)
	}
}

// --- frame body codecs ---
//
// All integers little-endian, on wire's shared append/ByteReader
// primitives. Site IDs are int32 on the wire so the coordinator's -1
// survives; strings and blobs are u32-length-prefixed.

func appendU16(dst []byte, x uint16) []byte { return wire.AppendUint16(dst, x) }
func appendU32(dst []byte, x uint32) []byte { return wire.AppendUint32(dst, x) }
func appendU64(dst []byte, x uint64) []byte { return wire.AppendUint64(dst, x) }
func appendI32(dst []byte, x int) []byte    { return wire.AppendUint32(dst, uint32(int32(x))) }
func appendBlob(dst []byte, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func readI32(r *wire.ByteReader) (int, error) {
	x, err := r.U32()
	return int(int32(x)), err
}

// readBlob returns a blob aliasing the frame buffer — for data consumed
// while the frame is live.
func readBlob(r *wire.ByteReader) ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	return r.Take(int(n))
}

// readBlobCopy returns a fresh copy — for decoded values that outlive
// the frame.
func readBlobCopy(r *wire.ByteReader) ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	return r.TakeCopy(int(n))
}

// openBody is the OPEN frame payload.
type openBody struct {
	qid  uint64
	kind cluster.SessionKind
	spec cluster.SessionSpec
}

// encodeOpen renders the OPEN body: one fixed layout, every field
// always present, an empty blob or a zero trace ID meaning absent.
func encodeOpen(o openBody) []byte {
	dst := appendU64(nil, o.qid)
	dst = append(dst, byte(o.kind))
	dst = appendBlob(dst, []byte(o.spec.Algo))
	dst = appendBlob(dst, o.spec.Query)
	dst = appendBlob(dst, o.spec.Config)
	return appendU64(dst, o.spec.TraceID)
}

func decodeOpen(b []byte) (openBody, error) {
	r := wire.NewByteReader(b)
	var o openBody
	var err error
	if o.qid, err = r.U64(); err != nil {
		return o, err
	}
	k, err := r.Byte()
	if err != nil {
		return o, err
	}
	o.kind = cluster.SessionKind(k)
	algo, err := readBlob(r)
	if err != nil {
		return o, err
	}
	o.spec.Algo = string(algo)
	// The spec escapes the frame: the host retains it for the session's
	// lifetime, long after this frame buffer is gone, so Query and
	// Config must be copies, not aliases (see the ownership convention in
	// wire.ByteReader).
	if o.spec.Query, err = readBlobCopy(r); err != nil {
		return o, err
	}
	if o.spec.Config, err = readBlobCopy(r); err != nil {
		return o, err
	}
	if o.spec.TraceID, err = r.U64(); err != nil {
		return o, err
	}
	return o, r.Done()
}

// ackNBody is the ACKN frame payload: `site`'s cumulative count of the
// session's retired messages, with the busy time and rounds of the
// run(s) it retires piggybacked so the driver's Stats stay meaningful
// across the process boundary. The driver retires what count adds to
// the last count it saw from the site (cluster.Cluster.Retired), so a
// replayed ACKN retires nothing.
type ackNBody struct {
	qid    uint64
	site   int
	count  uint64
	busyNs int64
	rounds int64
}

// ackNLen is the ACKN body's fixed length.
const ackNLen = 8 + 4 + 8 + 8 + 8

func encodeAckN(a ackNBody) []byte { return appendAckN(make([]byte, 0, ackNLen), a) }

func appendAckN(dst []byte, a ackNBody) []byte {
	dst = appendU64(dst, a.qid)
	dst = appendI32(dst, a.site)
	dst = appendU64(dst, a.count)
	dst = appendU64(dst, uint64(a.busyNs))
	return appendU64(dst, uint64(a.rounds))
}

func decodeAckN(b []byte) (ackNBody, error) {
	r := wire.NewByteReader(b)
	var a ackNBody
	var err error
	if a.qid, err = r.U64(); err != nil {
		return a, err
	}
	if a.site, err = readI32(r); err != nil {
		return a, err
	}
	if a.count, err = r.U64(); err != nil {
		return a, err
	}
	if a.count == 0 {
		return a, fmt.Errorf("tcpnet: ACKN with zero count")
	}
	bn, err := r.U64()
	if err != nil {
		return a, err
	}
	a.busyNs = int64(bn)
	rn, err := r.U64()
	if err != nil {
		return a, err
	}
	a.rounds = int64(rn)
	return a, r.Done()
}

// MSGB frame body: u64 qid, then one wire.Batch payload carrying a run
// of one or more messages. The writer encodes it straight from a queued
// run (chunkWriter.writeMsgB); decodeMsgB goes through wire.Decode so
// the batch codec (and its fuzz coverage) is the single source of truth.
func decodeMsgB(b []byte) (uint64, *wire.Batch, error) {
	r := wire.NewByteReader(b)
	qid, err := r.U64()
	if err != nil {
		return 0, nil, err
	}
	p, err := wire.Decode(r.Rest())
	if err != nil {
		return 0, nil, err
	}
	batch, ok := p.(*wire.Batch)
	if !ok {
		return 0, nil, fmt.Errorf("tcpnet: MSGB carries %s, not a batch", p.Kind())
	}
	return qid, batch, nil
}

// PING and PONG bodies are a bare u64 sequence number; the daemon
// echoes a PING's seq back in its PONG. Any inbound frame proves
// liveness to the driver's failure detector, so the seq is diagnostic
// rather than load-bearing.
func encodePingPong(seq uint64) []byte { return appendU64(nil, seq) }

func decodePingPong(b []byte) (uint64, error) {
	r := wire.NewByteReader(b)
	seq, err := r.U64()
	if err != nil {
		return 0, err
	}
	return seq, r.Done()
}

// TRACE frame body: u64 qid, then the internal/obs span codec —
// the per-round spans this daemon's sites recorded for a traced
// session, shipped once when the daemon processes the session's CLOSE.
func encodeTrace(qid uint64, spans []obs.SiteTrace) []byte {
	dst := appendU64(nil, qid)
	return obs.AppendSpans(dst, spans)
}

func decodeTrace(b []byte) (uint64, []obs.SiteTrace, error) {
	r := wire.NewByteReader(b)
	qid, err := r.U64()
	if err != nil {
		return 0, nil, err
	}
	spans, err := obs.DecodeSpans(r.Rest())
	return qid, spans, err
}

// errBody is the ERR frame payload; qid 0 addresses the deployment.
type errBody struct {
	qid uint64
	msg string
}

func encodeErr(e errBody) []byte {
	dst := appendU64(nil, e.qid)
	return appendBlob(dst, []byte(e.msg))
}

func decodeErr(b []byte) (errBody, error) {
	r := wire.NewByteReader(b)
	var e errBody
	var err error
	if e.qid, err = r.U64(); err != nil {
		return e, err
	}
	m, err := readBlob(r)
	if err != nil {
		return e, err
	}
	e.msg = string(m)
	return e, r.Done()
}

// deployBody is the DEPLOY frame payload: the deployment's shape, the
// global owner directory, the driver-owned label dictionary (names
// indexed by the dense u16 label ids the fragments and payloads carry —
// only here do label strings ever cross the wire), and the wire
// encodings of exactly the fragments this daemon hosts (in hosted-ID
// order).
type deployBody struct {
	total  int   // sites in the whole deployment
	hosted []int // site IDs this daemon hosts
	assign []int32
	labels []string // dict names by Label id
	frags  []byte   // partition.AppendFragment encodings, concatenated
}

func encodeDeploy(d deployBody) []byte {
	dst := make([]byte, 0, 16+4*len(d.hosted)+4*len(d.assign)+len(d.frags))
	dst = appendU32(dst, uint32(d.total))
	dst = appendU32(dst, uint32(len(d.hosted)))
	for _, id := range d.hosted {
		dst = appendU32(dst, uint32(id))
	}
	dst = appendU32(dst, uint32(len(d.assign)))
	for _, a := range d.assign {
		dst = appendU32(dst, uint32(a))
	}
	dst = appendU32(dst, uint32(len(d.labels)))
	for _, name := range d.labels {
		dst = appendBlob(dst, []byte(name))
	}
	return append(dst, d.frags...)
}

func decodeDeploy(b []byte) (deployBody, error) {
	r := wire.NewByteReader(b)
	var d deployBody
	total, err := r.U32()
	if err != nil {
		return d, err
	}
	d.total = int(total)
	nh, err := r.U32()
	if err != nil {
		return d, err
	}
	if uint64(nh)*4 > uint64(r.Remaining()) {
		return d, fmt.Errorf("tcpnet: hosted count %d exceeds frame", nh)
	}
	d.hosted = make([]int, nh)
	for i := range d.hosted {
		x, err := r.U32()
		if err != nil {
			return d, err
		}
		d.hosted[i] = int(x)
	}
	na, err := r.U32()
	if err != nil {
		return d, err
	}
	if uint64(na)*4 > uint64(r.Remaining()) {
		return d, fmt.Errorf("tcpnet: assign length %d exceeds frame", na)
	}
	d.assign = make([]int32, na)
	for i := range d.assign {
		x, err := r.U32()
		if err != nil {
			return d, err
		}
		d.assign[i] = int32(x)
	}
	nl, err := r.U32()
	if err != nil {
		return d, err
	}
	if uint64(nl) > 1<<16 || uint64(nl)*4 > uint64(r.Remaining()) {
		return d, fmt.Errorf("tcpnet: label table length %d exceeds frame", nl)
	}
	d.labels = make([]string, nl)
	for i := range d.labels {
		// string() copies: the names outlive the frame.
		name, err := readBlob(r)
		if err != nil {
			return d, err
		}
		d.labels[i] = string(name)
	}
	d.frags = r.Rest()
	return d, nil
}

// --- direct writes ---

// writeFrame is the one checked path for synchronous (non-outbox)
// frame writes: handshake traffic and refusals. It arms the write
// deadline, writes the whole frame, and surfaces short writes as
// errors, so callers can meter exactly what reached the socket.
func writeFrame(c net.Conn, timeout time.Duration, typ byte, body []byte) (int, error) {
	frame := wire.AppendFrame(nil, typ, body)
	if timeout > 0 {
		if err := c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
	}
	n, err := c.Write(frame)
	if err == nil && n != len(frame) {
		err = io.ErrShortWrite
	}
	return n, err
}

// --- the connection writer ---

// Outbound entry kinds. Control traffic is pre-framed; messages and
// retirements stay as typed entries so the writer can coalesce
// consecutive runs at flush time.
const (
	entryFrame = iota // pre-encoded frame in data, written as-is
	entryMsg          // one session message; same-qid runs become one MSGB
	entryAck          // one site's retired run; same-(qid,site) runs become one ACKN
)

// outEntry is 64 bytes: a connection's queue is the transport's largest
// pointer-bearing buffer, so entry width is allocation and GC-scan cost
// on every message.
type outEntry struct {
	kind byte
	from int32 // entryMsg: the sender; entryAck: the retiring site
	qid  uint64
	data []byte // entryFrame: the frame; entryMsg: the payload
	// entryMsg: the destination site; entryAck: the site's cumulative
	// retired count.
	to int64
	// entryAck:
	busyNs int64
	rounds int64
}

// connSpare is a connection queue's spare cap, in entries (2 MiB of
// them): a connection carries every message of its daemon's sites, so a
// superstep's burst reaches tens of thousands of entries, and a queue
// that dropped such a buffer would regrow it, by doubling, on every
// burst. A process has one or a few connections, so the pinned buffers
// stay small beside the bursts themselves.
const connSpare = 1 << 15

// batchByteCap bounds one MSGB frame's coalesced payload bytes: a run
// larger than this splits into several batches, keeping frames well
// under wire.MaxFrame and bounding the receiver's per-frame work.
const batchByteCap = 1 << 24

// frameSize is one written frame's session and length in bytes, header
// included: what a writer's meter observes.
type frameSize struct {
	qid uint64
	n   int
}

// writeLoop is the one writer of a connection end, driver or daemon: it
// drains the connection's queue a whole chunk per wakeup — which is
// where coalescing runs form: under load many entries accumulate while
// the previous chunk is on the socket, while an idle connection flushes
// a lone message with no added latency — and writes each chunk under a
// fresh write deadline. It returns nil once the queue is closed and
// drained, or the first write error; the caller owns the error policy.
func writeLoop(c net.Conn, q *cluster.Queue[outEntry], meter func(frames []frameSize)) error {
	w := &chunkWriter{bw: bufio.NewWriterSize(c, 1<<16), meter: meter}
	var entries []outEntry
	for {
		var ok bool
		if entries, ok = q.Drain(entries); !ok {
			return nil
		}
		c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := w.writeChunk(entries); err != nil {
			return err
		}
	}
}

// chunkWriter writes a connection end's drained chunks onto bw. frames
// is its scratch list of the chunk's frame sizes, reused chunk to chunk.
type chunkWriter struct {
	bw     *bufio.Writer
	meter  func(frames []frameSize) // nil ok
	frames []frameSize
}

// writeChunk encodes one drained chunk onto bw and flushes once, so an
// entire chunk shares syscalls. Each run of consecutive entryMsg entries
// with one qid — a run of one included — becomes one MSGB frame, and
// each run of consecutive entryAck entries with one (qid, site) one ACKN
// frame carrying the run's last cumulative count (it covers the earlier
// ones) and its summed busy time and rounds. Runs never extend across a
// differing entry, so per-connection FIFO order — a daemon's
// handler-output messages stay ahead of the retirement of the run that
// produced them — is exactly preserved.
//
// Frames are written straight into bw: the coalescing pass knows a
// MSGB's length before its first byte, so headers go into bw's free
// space and payloads are copied once, from the entry into bw, and a
// chunk allocates nothing. The bytes are those of wire.AppendFrame over
// the frame's body codec (a MSGB body is the qid and a wire.Batch
// encoding).
//
// meter (nil ok) observes the chunk's frames in one call, only after the
// flush succeeds: metered bytes never drift ahead of what actually hit
// the socket.
func (w *chunkWriter) writeChunk(entries []outEntry) error {
	w.frames = w.frames[:0]
	for i := 0; i < len(entries); {
		e := entries[i]
		j := i + 1
		n := len(e.data)
		var err error
		switch e.kind {
		case entryMsg:
			sz := 12 + len(e.data)
			for j < len(entries) && entries[j].kind == entryMsg && entries[j].qid == e.qid {
				nsz := sz + 12 + len(entries[j].data)
				if nsz > batchByteCap {
					break
				}
				sz = nsz
				j++
			}
			n, err = w.writeMsgB(e.qid, entries[i:j], sz)
		case entryAck:
			a := ackNBody{qid: e.qid, site: int(e.from), count: uint64(e.to), busyNs: e.busyNs, rounds: e.rounds}
			for ; j < len(entries) && entries[j].kind == entryAck && entries[j].qid == e.qid && entries[j].from == e.from; j++ {
				a.count = uint64(entries[j].to)
				a.busyNs += entries[j].busyNs
				a.rounds += entries[j].rounds
			}
			n, err = w.writeAckN(a)
		default:
			_, err = w.bw.Write(e.data)
		}
		if err != nil {
			return err
		}
		if w.meter != nil {
			w.frames = append(w.frames, frameSize{e.qid, n})
		}
		i = j
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.meter != nil && len(w.frames) > 0 {
		w.meter(w.frames)
	}
	return nil
}

// header returns bw's free space, flushed to hold at least n bytes, for
// a frame header to be appended into and written back: the
// bufio.Writer.AvailableBuffer idiom, which copies nothing extra and
// allocates nothing.
func (w *chunkWriter) header(n int) ([]byte, error) {
	if w.bw.Available() < n {
		if err := w.bw.Flush(); err != nil {
			return nil, err
		}
	}
	return w.bw.AvailableBuffer(), nil
}

// writeMsgB writes run as one MSGB frame of session qid; sz is the run's
// sub-message bytes, 12 header bytes and the payload each. It returns
// the frame's length.
func (w *chunkWriter) writeMsgB(qid uint64, run []outEntry, sz int) (int, error) {
	body := 8 + 1 + 4 + sz // qid, the batch kind byte, the count, the run
	if body+1 > wire.MaxFrame {
		panic(fmt.Sprintf("tcpnet: MSGB body %d exceeds MaxFrame", body))
	}
	b, err := w.header(wire.FrameOverhead + 13)
	if err != nil {
		return 0, err
	}
	b = appendU32(b, uint32(body+1))
	b = append(b, frameMsgB)
	b = appendU64(b, qid)
	b = append(b, byte(wire.KindBatch))
	b = appendU32(b, uint32(len(run)))
	if _, err := w.bw.Write(b); err != nil {
		return 0, err
	}
	for i := range run {
		if b, err = w.header(12); err != nil {
			return 0, err
		}
		b = appendI32(b, int(run[i].from))
		b = appendI32(b, int(run[i].to))
		b = appendU32(b, uint32(len(run[i].data)))
		if _, err := w.bw.Write(b); err != nil {
			return 0, err
		}
		if _, err := w.bw.Write(run[i].data); err != nil {
			return 0, err
		}
	}
	return wire.FrameOverhead + body, nil
}

// writeAckN writes a as one ACKN frame and returns the frame's length.
func (w *chunkWriter) writeAckN(a ackNBody) (int, error) {
	b, err := w.header(wire.FrameOverhead + ackNLen)
	if err != nil {
		return 0, err
	}
	b = appendU32(b, 1+ackNLen)
	b = append(b, frameAckN)
	b = appendAckN(b, a)
	_, err = w.bw.Write(b)
	return wire.FrameOverhead + ackNLen, err
}

// HostedRange computes the contiguous block of site IDs daemon j of k
// hosts in an n-site deployment: sites [j·n/k, (j+1)·n/k). Both Dial and
// the DEPLOY frame use it, so it is the one place the placement policy
// lives.
func HostedRange(n, k, j int) (lo, hi int) {
	return j * n / k, (j + 1) * n / k
}
