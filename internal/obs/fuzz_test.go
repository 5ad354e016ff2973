package obs

// FuzzDecodeSpans holds the TRACE body decoder to the rule every
// network-facing decoder follows: never panic on arbitrary bytes, never
// build more spans than the input can hold, and accept only the
// canonical encoding — re-encoding an accepted input reproduces it byte
// for byte.

import (
	"bytes"
	"testing"
)

func FuzzDecodeSpans(f *testing.F) {
	for _, sites := range [][]SiteTrace{
		nil,
		{{Site: CoordinatorSite, Spans: []RoundSpan{{Round: 0, BusyNs: 12, MsgsIn: 3, MsgsOut: 1, BytesIn: 90, BytesOut: 14, Rounds: 2}}}},
		{{Site: 0, Spans: []RoundSpan{{BusyNs: 7, MsgsIn: 1, BytesIn: 9}, {Round: 1, BusyNs: 5, MsgsOut: 2, BytesOut: 31, Rounds: 1}}}, {Site: 2}},
	} {
		body := AppendSpans(nil, sites)
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(append(append([]byte(nil), body...), 0))
	}
	// Site and span counts far beyond the input.
	f.Add([]byte{255, 255, 255, 255})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		sites, err := DecodeSpans(data) // must never panic
		if err != nil {
			return
		}
		n := 4
		for _, s := range sites {
			n += 12 + 56*len(s.Spans)
		}
		if n != len(data) {
			t.Fatalf("decoded %d bytes' worth of spans from a %d-byte body", n, len(data))
		}
		if re := AppendSpans(nil, sites); !bytes.Equal(re, data) {
			t.Fatalf("DecodeSpans accepted non-canonical input:\nin  %x\nout %x", data, re)
		}
	})
}
