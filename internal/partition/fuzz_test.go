package partition

import (
	"bytes"
	"testing"

	"dgs/internal/graph"
)

// FuzzDecodeFragment holds DecodeFragment to what a site server needs of
// a DEPLOY from an arbitrary peer: it never panics, what it accepts is
// canonical (re-encodes to the same bytes), the index of an accepted
// fragment builds, and it decodes no more entries than the input's bytes
// can carry.
func FuzzDecodeFragment(f *testing.F) {
	b := graph.NewBuilder()
	for _, l := range []string{"a", "b", "c", "a", "b", "c", "a", "b"} {
		b.AddNode(l)
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 4}, {1, 2}, {2, 0}, {3, 5}, {4, 6}, {5, 7}, {6, 1}, {7, 3}, {7, 0}} {
		b.AddEdge(e[0], e[1])
	}
	fr, err := Build(b.MustBuild(), []int32{0, 0, 1, 1, 2, 2, 0, 1}, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, fg := range fr.Frags {
		enc := AppendFragment(nil, fg)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(append([]byte(nil), enc...), 0xEE))
	}
	f.Add([]byte{})
	// Counts far beyond the input: locals, virtuals, in-nodes.
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		fg, rest, err := DecodeFragment(data) // must never panic
		if err != nil {
			return
		}
		used := data[:len(data)-len(rest)]
		if re := AppendFragment(nil, fg); !bytes.Equal(re, used) {
			t.Fatalf("DecodeFragment accepted non-canonical input:\nin  %x\nout %x", used, re)
		}
		n := 10*(len(fg.Local)+len(fg.Virtual)) + 8*len(fg.InNodes) + 4*fg.NumEdges()
		for _, ws := range fg.InWatchers {
			n += 4 * len(ws)
		}
		if n > len(used) {
			t.Fatalf("decoded %d bytes' worth of entries from %d bytes", n, len(used))
		}
		fg.Index() // must never panic
	})
}
