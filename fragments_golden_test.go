package dgs

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// fragGolden records what every registered partitioner makes of one
// seeded graph, one line per partitioner: a hash of its assignment, a
// hash of each fragment's wire encoding, and the same fragment hashes
// after a seeded ApplyBatchLocal stream that retires virtual nodes and
// gives birth to others. A change to how fragments are built, stored,
// encoded or mutated must leave it byte-identical. `go test -run
// TestFragmentsGolden -update .` rewrites it.
const fragGolden = "testdata/fragments.golden"

func TestFragmentsGolden(t *testing.T) {
	// A tree, so that the tree partitioner runs too; the stream's
	// insertions give its in-nodes more than one watcher.
	g := GenTree(NewDict(), 600, 5)
	var lines []string
	for _, name := range Partitioners() {
		part, err := PartitionWith(g, name, 6, WithPartitionSeed(17), WithPartitionTarget(0.3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fr := part.fr
		line := fmt.Sprintf("%s assign=%016x frags=%s", name, hashBytes(int32Bytes(part.Assignment())), fragmentHashes(fr))
		births, deaths := fragUpdateStream(t, fr, rand.New(rand.NewSource(23)))
		if births == 0 || deaths == 0 {
			t.Fatalf("%s: the update stream gave birth to %d virtual nodes and retired %d", name, births, deaths)
		}
		lines = append(lines, line+" updated="+fragmentHashes(fr))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(fragGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fragGolden)
	if err != nil {
		t.Fatalf("%v (go test -run TestFragmentsGolden -update writes it)", err)
	}
	if got != string(want) {
		t.Fatalf("golden mismatch (go test -run TestFragmentsGolden -update rewrites %s)\nwant %s\ngot  %s", fragGolden, want, got)
	}
}

// fragUpdateStream applies eight seeded batches to fr as a driver
// replays them — ApplyBatchLocal on the fragments, each of them indexed
// beforehand, the overlay alongside — checking the §2.2 invariants after
// each, and reports how many virtual nodes were born and retired.
func fragUpdateStream(t *testing.T, fr *partition.Fragmentation, r *rand.Rand) (births, deaths int) {
	t.Helper()
	n := fr.G.NumNodes()
	for batch := 0; batch < 8; batch++ {
		cur := fr.CurrentGraph()
		var dels, ins [][2]graph.NodeID
		cur.Edges(func(v, w graph.NodeID) bool {
			if r.Intn(15) == 0 {
				dels = append(dels, [2]graph.NodeID{v, w})
			}
			return true
		})
		for i := 0; i < 20; i++ {
			v, w := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if e := [2]graph.NodeID{v, w}; v != w && !cur.HasEdge(v, w) && !slices.Contains(ins, e) {
				ins = append(ins, e)
			}
		}
		before := make([][]graph.NodeID, len(fr.Frags))
		for i, f := range fr.Frags {
			f.Index()
			before[i] = slices.Clone(f.Virtual)
		}
		if err := partition.ApplyBatchLocal(fr, dels, ins); err != nil {
			t.Fatal(err)
		}
		ov := fr.Overlay()
		for _, e := range dels {
			if err := ov.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range ins {
			if err := ov.InsertEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, f := range fr.Frags {
			for _, v := range f.Virtual {
				if _, ok := slices.BinarySearch(before[i], v); !ok {
					births++
				}
			}
			for _, v := range before[i] {
				if !f.IsVirtual(v) {
					deaths++
				}
			}
		}
	}
	return births, deaths
}

// fragmentHashes lists the hash of each fragment's wire encoding.
func fragmentHashes(fr *partition.Fragmentation) string {
	hs := make([]string, len(fr.Frags))
	for i, f := range fr.Frags {
		hs[i] = fmt.Sprintf("%016x", hashBytes(partition.AppendFragment(nil, f)))
	}
	return strings.Join(hs, ",")
}

func int32Bytes(xs []int32) []byte {
	var b []byte
	for _, x := range xs {
		b = wire.AppendUint32(b, uint32(x))
	}
	return b
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
