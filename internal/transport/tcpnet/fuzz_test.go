package tcpnet

// Fuzz targets for the network-facing body decoders: the two with
// variable-length fields, and ACKN, the retirement the termination
// certificate trusts. Each must never panic on arbitrary bytes, never
// build a value larger than its input (the counts and lengths a peer
// sends are checked against the bytes actually present before anything
// is allocated), and accept only the canonical encoding: re-encoding an
// accepted input reproduces it byte for byte.

import (
	"bytes"
	"math"
	"testing"

	"dgs/internal/cluster"
)

func FuzzDecodeOpen(f *testing.F) {
	for _, s := range []struct {
		algo          string
		kind          cluster.SessionKind
		query, config []byte
		traceID       uint64
	}{
		{algo: "a", query: []byte{1, 2, 3}, config: []byte{9, 8}},
		{algo: "update", kind: cluster.SessionMaintenance},
		{algo: "a", query: []byte{1}, config: []byte{2}, traceID: 0xBEEF},
		{algo: "a", query: []byte{1}, config: []byte{2}, traceID: math.MaxUint64},
		{},
		{algo: "long-algorithm-name", query: bytes.Repeat([]byte{7}, 300), config: bytes.Repeat([]byte{1}, 40)},
	} {
		o := openBody{qid: 7, kind: s.kind}
		o.spec.Algo, o.spec.Query, o.spec.Config = s.algo, s.query, s.config
		o.spec.TraceID = s.traceID
		body := encodeOpen(o)
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(append(append([]byte(nil), body...), 0xEE))
	}
	f.Add([]byte{})
	// A blob length far beyond the frame.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeOpen(data) // must never panic
		if err != nil {
			return
		}
		if n := len(o.spec.Algo) + len(o.spec.Query) + len(o.spec.Config); n > len(data) {
			t.Fatalf("decoded %d field bytes from a %d-byte body", n, len(data))
		}
		if re := encodeOpen(o); !bytes.Equal(re, data) {
			t.Fatalf("decodeOpen accepted non-canonical input:\nin  %x\nout %x", data, re)
		}
	})
}

func FuzzDecodeDeploy(f *testing.F) {
	for _, d := range []deployBody{
		{total: 4, hosted: []int{1, 3}, assign: []int32{0, 1, 2, 3}, labels: []string{"", "person", "movie"}, frags: []byte{0xAA, 0xBB}},
		{total: 1, hosted: []int{0}, assign: []int32{0}, labels: []string{"x"}},
		{},
	} {
		body := encodeDeploy(d)
		f.Add(body)
		if len(body) > 0 {
			f.Add(body[:len(body)-1])
		}
	}
	// Counts far beyond the frame: hosted, assign, label table.
	f.Add([]byte{4, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeDeploy(data) // must never panic
		if err != nil {
			return
		}
		n := 4*(len(d.hosted)+len(d.assign)+len(d.labels)) + len(d.frags)
		for _, name := range d.labels {
			n += len(name)
		}
		if n > len(data) {
			t.Fatalf("decoded %d bytes' worth of entries from a %d-byte body", n, len(data))
		}
		if re := encodeDeploy(d); !bytes.Equal(re, data) {
			t.Fatalf("decodeDeploy accepted non-canonical input:\nin  %x\nout %x", data, re)
		}
	})
}

func FuzzDecodeAckN(f *testing.F) {
	for _, a := range []ackNBody{
		{qid: 3, site: 2, count: 17, busyNs: 123456, rounds: 9},
		{qid: 1, site: -1, count: 1},
		{qid: 1<<64 - 1, site: 1<<31 - 1, count: 1<<64 - 1, busyNs: -1, rounds: -1},
		{qid: 7, count: 0}, // zero count: refused
	} {
		body := encodeAckN(a)
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(append(append([]byte(nil), body...), 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAckN(data) // must never panic
		if err != nil {
			return
		}
		if a.count == 0 {
			t.Fatalf("decodeAckN accepted a zero count: %+v", a)
		}
		if re := encodeAckN(a); !bytes.Equal(re, data) {
			t.Fatalf("decodeAckN accepted non-canonical input:\nin  %x\nout %x", data, re)
		}
	})
}
