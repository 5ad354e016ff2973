package tcpnet

// Codec-level tests for the frame bodies and the chunk writer: buffer
// ownership of decoded values that outlive their frame, the DEPLOY
// label table, the ACKN codec, and the exact coalescing behavior of
// writeChunk.

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// A decoded OPEN outlives its frame (the host retains the spec for the
// session), so Query and Config must be copies, not aliases of the
// frame buffer.
func TestDecodeOpenCopiesSpec(t *testing.T) {
	body := encodeOpen(openBody{
		qid:  7,
		kind: cluster.SessionQuery,
		spec: cluster.SessionSpec{Algo: "a", Query: []byte{1, 2, 3}, Config: []byte{9, 8}}, //lint:allow regconsistent — codec round-trip probe, the spec never reaches a site
	})
	o, err := decodeOpen(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xFF
	}
	if !bytes.Equal(o.spec.Query, []byte{1, 2, 3}) || !bytes.Equal(o.spec.Config, []byte{9, 8}) {
		t.Fatalf("decoded spec aliases the frame buffer: query=%v config=%v", o.spec.Query, o.spec.Config)
	}
}

func TestDeployLabelTable(t *testing.T) {
	d := deployBody{
		total:  4,
		hosted: []int{1, 3},
		assign: []int32{0, 1, 2, 3},
		labels: []string{"", "person", "movie"},
		frags:  []byte{0xAA, 0xBB},
	}
	got, err := decodeDeploy(encodeDeploy(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.labels, d.labels) {
		t.Fatalf("labels = %q, want %q", got.labels, d.labels)
	}
	if !bytes.Equal(got.frags, d.frags) || got.total != d.total {
		t.Fatalf("round trip mangled the body: %+v", got)
	}
}

// A DEPLOY that names sites or nodes outside the deployment is refused:
// its sites would index past the deployment's site table or owner
// directory at the first query, route to the coordinator through a
// directory entry of -1, or host one site twice.
func TestDecodeFragSetRefusesOutsideDeployment(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("a")
	}
	b.AddEdge(0, 2)
	b.AddEdge(2, 1)
	fr, err := partition.Build(b.MustBuild(), []int32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok := deployBody{total: 2, hosted: []int{0}, assign: fr.Assign, labels: []string{"", "a"}, frags: partition.AppendFragment(nil, fr.Frags[0])}
	if _, why := decodeFragSet(ok); why != "" {
		t.Fatalf("well-formed fragment refused: %s", why)
	}
	// frag0 ships fragment 0 of an n-fragment fragmentation of another
	// graph of "a" nodes: well-formed on its own, but naming sites or
	// nodes that the two-site, four-node deployment does not have.
	frag0 := func(nodes int, edges [][2]graph.NodeID, assign []int32, n int) func(d *deployBody) {
		return func(d *deployBody) {
			b := graph.NewBuilder()
			for i := 0; i < nodes; i++ {
				b.AddNode("a")
			}
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
			}
			big, err := partition.Build(b.MustBuild(), assign, n)
			if err != nil {
				t.Fatal(err)
			}
			d.frags = partition.AppendFragment(nil, big.Frags[0])
		}
	}
	enc := func(fs ...*partition.Fragment) (b []byte) {
		for _, f := range fs {
			b = partition.AppendFragment(b, f)
		}
		return b
	}
	for name, mangle := range map[string]func(d *deployBody){
		// Site 5 holds node 1 as virtual.
		"watcher": frag0(5, [][2]graph.NodeID{{0, 2}, {2, 1}, {4, 1}}, []int32{0, 0, 1, 1, 5}, 6),
		// Node 9 is virtual at site 0.
		"directory":         frag0(10, [][2]graph.NodeID{{0, 2}, {0, 9}, {2, 1}}, []int32{0, 0, 1, 1, 1, 1, 1, 1, 1, 1}, 2),
		"directory entry":   func(d *deployBody) { d.assign = []int32{0, 0, 5, 1} },
		"coordinator entry": func(d *deployBody) { d.assign = []int32{0, 0, -1, 1} },
		"no sites":          func(d *deployBody) { d.total, d.hosted, d.assign, d.frags = 0, nil, nil, nil },
		"hosted ID": func(d *deployBody) {
			f := partition.CloneFragment(fr.Frags[0])
			f.ID = 2
			d.hosted, d.frags = []int{2}, enc(f)
		},
		"repeated hosted ID":    func(d *deployBody) { d.hosted, d.frags = []int{0, 0}, enc(fr.Frags[0], fr.Frags[0]) },
		"descending hosted IDs": func(d *deployBody) { d.hosted, d.frags = []int{1, 0}, enc(fr.Frags[1], fr.Frags[0]) },
	} {
		d := ok
		mangle(&d)
		if _, why := decodeFragSet(d); why == "" {
			t.Fatalf("%s outside the deployment accepted", name)
		}
	}
}

func TestAckNRoundTrip(t *testing.T) {
	// The count is a session's cumulative total: it must survive past u32.
	a := ackNBody{qid: 3, site: 2, count: 1<<40 + 17, busyNs: 123456, rounds: 9}
	got, err := decodeAckN(encodeAckN(a))
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip: got %+v, want %+v", got, a)
	}
	bad := a
	bad.count = 0
	if _, err := decodeAckN(encodeAckN(bad)); err == nil {
		t.Fatal("zero-count ACKN decoded without error")
	}
}

// readChunkFrames writes entries through writeChunk and parses the
// produced byte stream back into frames.
func readChunkFrames(t *testing.T, entries []outEntry) (types []byte, bodies [][]byte, metered int) {
	t.Helper()
	var buf bytes.Buffer
	w := &chunkWriter{bw: bufio.NewWriter(&buf), meter: func(frames []frameSize) {
		for _, f := range frames {
			metered += f.n
		}
	}}
	if err := w.writeChunk(entries); err != nil {
		t.Fatal(err)
	}
	if metered != buf.Len() {
		t.Fatalf("meter saw %d bytes, socket saw %d", metered, buf.Len())
	}
	br := bufio.NewReader(&buf)
	for {
		typ, body, err := wire.ReadFrame(br)
		if err != nil {
			return types, bodies, metered
		}
		types = append(types, typ)
		bodies = append(bodies, body)
	}
}

// The coalescer merges only consecutive same-key runs and never
// reorders: message runs split at qid changes and at interleaved
// retirements, retirement runs split at (qid, site) changes. A lone
// message is a MSGB of one and a lone retirement an ACKN; merged
// retirements carry the later cumulative count and summed busy/rounds.
func TestWriteChunkCoalescing(t *testing.T) {
	msg := func(qid uint64, to int64, b byte) outEntry {
		return outEntry{kind: entryMsg, qid: qid, from: -1, to: to, data: []byte{byte(wire.KindControl), b}}
	}
	ack := func(qid uint64, site int32, cum, busy, rounds int64) outEntry {
		return outEntry{kind: entryAck, qid: qid, from: site, to: cum, busyNs: busy, rounds: rounds}
	}
	entries := []outEntry{
		msg(1, 0, 10), msg(1, 1, 11), msg(1, 2, 12), // run → MSGB(3)
		msg(2, 0, 20),                          // qid change → MSGB(1)
		ack(1, 0, 3, 5, 1), ack(1, 0, 4, 7, 2), // run → ACKN(cum 4)
		ack(1, 1, 1, 3, 0), // site change → ACKN(cum 1)
		msg(1, 3, 13),      // retirement in between → new run, MSGB(1)
		ack(1, 3, 5, 9, 1), // lone retirement → ACKN(cum 5) as is
		{kind: entryFrame, qid: 0, data: wire.AppendFrame(nil, frameBye, nil)},
	}

	types, bodies, _ := readChunkFrames(t, entries)
	want := []byte{frameMsgB, frameMsgB, frameAckN, frameAckN, frameMsgB, frameAckN, frameBye}
	if !bytes.Equal(types, want) {
		t.Fatalf("frame sequence = %v, want %v", types, want)
	}
	for i, want := range map[int]struct {
		qid uint64
		n   int
	}{0: {1, 3}, 1: {2, 1}, 4: {1, 1}} {
		qid, batch, err := decodeMsgB(bodies[i])
		if err != nil || qid != want.qid || len(batch.Msgs) != want.n {
			t.Fatalf("frame %d: MSGB qid=%d with %d msgs (%v), want qid=%d with %d", i, qid, len(batch.Msgs), err, want.qid, want.n)
		}
	}
	_, batch, _ := decodeMsgB(bodies[0])
	for i, m := range batch.Msgs {
		if int(m.To) != i || m.Data[1] != byte(10+i) {
			t.Fatalf("MSGB sub-message %d out of order: to=%d data=%v", i, m.To, m.Data)
		}
	}
	for i, want := range map[int]ackNBody{
		2: {qid: 1, site: 0, count: 4, busyNs: 12, rounds: 3},
		3: {qid: 1, site: 1, count: 1, busyNs: 3},
		5: {qid: 1, site: 3, count: 5, busyNs: 9, rounds: 1},
	} {
		if got, err := decodeAckN(bodies[i]); err != nil || got != want {
			t.Fatalf("frame %d: ACKN = %+v (%v), want %+v", i, got, err, want)
		}
	}
}

// The writer puts frames straight into its buffer: a flush of a mixed
// chunk — three sessions, message runs and retirement runs, a control
// frame — allocates nothing, meters every frame in one call, and writes
// exactly the bytes of wire.AppendFrame over each frame's body codec, a
// MSGB body being the qid and the wire.Batch encoding of its run.
func TestWriteChunkAllocatesNothing(t *testing.T) {
	msg := func(qid uint64, from int32, to int64, n int) outEntry {
		data := bytes.Repeat([]byte{byte(n)}, n)
		data[0] = byte(wire.KindControl)
		return outEntry{kind: entryMsg, qid: qid, from: from, to: to, data: data}
	}
	ack := func(qid uint64, site int32, cum, busy, rounds int64) outEntry {
		return outEntry{kind: entryAck, qid: qid, from: site, to: cum, busyNs: busy, rounds: rounds}
	}
	entries := []outEntry{
		msg(1, 0, 3, 2), msg(1, 0, -1, 40), msg(1, 2, 1, 7),
		ack(1, 0, 3, 100, 1), ack(1, 0, 5, 50, 0),
		msg(2, 1, 0, 300),
		ack(2, 1, 9, 7, 2),
		msg(3, -1, 2, 1), msg(3, 3, 2, 5000),
		ack(3, 3, 1, 1, 1),
		{kind: entryFrame, data: wire.AppendFrame(nil, framePong, encodePingPong(4))},
	}
	batch := func(qid uint64, run ...outEntry) []byte {
		b := &wire.Batch{}
		for _, e := range run {
			b.Msgs = append(b.Msgs, wire.BatchMsg{From: e.from, To: int32(e.to), Data: e.data})
		}
		return wire.AppendFrame(nil, frameMsgB, append(appendU64(nil, qid), wire.Encode(b)...))
	}
	ackN := func(a ackNBody) []byte { return wire.AppendFrame(nil, frameAckN, encodeAckN(a)) }
	want := bytes.Join([][]byte{
		batch(1, entries[0:3]...),
		ackN(ackNBody{qid: 1, site: 0, count: 5, busyNs: 150, rounds: 1}),
		batch(2, entries[5]),
		ackN(ackNBody{qid: 2, site: 1, count: 9, busyNs: 7, rounds: 2}),
		batch(3, entries[7:9]...),
		ackN(ackNBody{qid: 3, site: 3, count: 1, busyNs: 1, rounds: 1}),
		entries[10].data,
	}, nil)

	var sink bytes.Buffer
	sink.Grow(len(want))
	metered, calls := 0, 0
	// A buffer smaller than the chunk exercises the mid-chunk flushes.
	w := &chunkWriter{bw: bufio.NewWriterSize(&sink, 1024), meter: func(frames []frameSize) {
		calls++
		for _, f := range frames {
			metered += f.n
		}
	}}
	if err := w.writeChunk(entries); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("writer bytes differ from the frame codecs':\n got %x\nwant %x", sink.Bytes(), want)
	}
	if calls != 1 || metered != len(want) {
		t.Fatalf("meter called %d times for %d bytes, want once for %d", calls, metered, len(want))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		if err := w.writeChunk(entries); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("writeChunk allocates %.1f times per chunk, want 0", allocs)
	}
}

// A run bigger than batchByteCap splits rather than producing one
// oversized MSGB.
func TestWriteChunkRespectsByteCap(t *testing.T) {
	big := make([]byte, batchByteCap/2)
	big[0] = byte(wire.KindControl)
	entries := []outEntry{
		{kind: entryMsg, qid: 1, to: 0, data: big},
		{kind: entryMsg, qid: 1, to: 1, data: big},
		{kind: entryMsg, qid: 1, to: 2, data: big},
	}
	types, _, _ := readChunkFrames(t, entries)
	if len(types) < 2 {
		t.Fatalf("an over-cap run coalesced into %d frame(s)", len(types))
	}
	for _, typ := range types {
		if typ != frameMsgB {
			t.Fatalf("unexpected frame %s in split run", frameName(typ))
		}
	}
}

// The OPEN layout is fixed: the trace ID is always on the wire, zero
// meaning absent, and both cases round-trip. A body cut short anywhere,
// or with bytes after the trace ID, is rejected rather than read as a
// shorter layout — and so is the version-9 layout, which carried a plan
// blob between config and trace ID.
func TestEncodeOpenTracedRoundTrip(t *testing.T) {
	for name, spec := range map[string]cluster.SessionSpec{
		"bare":   {Algo: "a", Query: []byte{1}, Config: []byte{2}},                  //lint:allow regconsistent — codec round-trip probe, the spec never reaches a site
		"traced": {Algo: "a", Query: []byte{1}, Config: []byte{2}, TraceID: 0xBEEF}, //lint:allow regconsistent — codec round-trip probe, the spec never reaches a site
	} {
		o := openBody{qid: 3, kind: cluster.SessionQuery, spec: spec}
		body := encodeOpen(o)
		got, err := decodeOpen(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, o) {
			t.Fatalf("%s: round trip mangled the body: %+v", name, got)
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeOpen(body[:cut]); err == nil {
				t.Fatalf("%s: body truncated to %d of %d bytes decoded", name, cut, len(body))
			}
		}
		if _, err := decodeOpen(append(body, 0)); err == nil {
			t.Fatalf("%s: trailing byte after the trace ID decoded", name)
		}
		for _, plan := range [][]byte{nil, {7}} {
			v9 := appendU64(nil, o.qid)
			v9 = append(v9, byte(o.kind))
			v9 = appendBlob(v9, []byte(spec.Algo))
			v9 = appendBlob(v9, spec.Query)
			v9 = appendBlob(v9, spec.Config)
			v9 = appendBlob(v9, plan)
			v9 = appendU64(v9, spec.TraceID)
			if got, err := decodeOpen(v9); err == nil {
				t.Fatalf("%s: version-9 body with plan blob %v decoded as %+v", name, plan, got)
			}
		}
	}
}

// The TRACE frame body round-trips multi-site span sets, including the
// coordinator pseudo-site and sites with no spans.
func TestTraceCodecRoundTrip(t *testing.T) {
	spans := []obs.SiteTrace{
		{Site: obs.CoordinatorSite, Spans: []obs.RoundSpan{{Round: 0, BusyNs: 12, MsgsIn: 3, MsgsOut: 1, BytesIn: 90, BytesOut: 14, Rounds: 2}}},
		{Site: 0, Spans: []obs.RoundSpan{{Round: 0, BusyNs: 7, MsgsIn: 1, BytesIn: 9}, {Round: 1, BusyNs: 5, MsgsOut: 2, BytesOut: 31, Rounds: 1}}},
		{Site: 2, Spans: []obs.RoundSpan{}},
	}
	qid, got, err := decodeTrace(encodeTrace(42, spans))
	if err != nil {
		t.Fatal(err)
	}
	if qid != 42 {
		t.Fatalf("qid = %d, want 42", qid)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("span set mangled:\nwant %+v\ngot  %+v", spans, got)
	}
	if _, _, err := decodeTrace([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated TRACE body decoded")
	}
}
