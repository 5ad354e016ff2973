package plan

import (
	"bytes"
	"testing"
)

// FuzzDecodePlan holds the plan codec a site applies to an OPEN's plan
// blob: Decode never panics, and what it accepts is canonical — it
// re-encodes to the same bytes.
func FuzzDecodePlan(f *testing.F) {
	for _, p := range []*Plan{
		{},
		{Empty: true},
		{Nodes: []uint16{2, 0, 1}, Edges: []uint16{1, 0}},
		{Nodes: []uint16{0}, Edges: nil, Empty: true},
	} {
		enc := p.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(append([]byte(nil), enc...), 0))
	}
	// Lengths far beyond the blob.
	f.Add([]byte{codecVersion, 0, 255, 255})
	f.Add([]byte{codecVersion, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data) // must never panic
		if err != nil {
			return
		}
		if 2*(len(p.Nodes)+len(p.Edges)) > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(p.Nodes)+len(p.Edges), len(data))
		}
		if re := p.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("Decode accepted non-canonical input:\nin  %x\nout %x", data, re)
		}
	})
}
