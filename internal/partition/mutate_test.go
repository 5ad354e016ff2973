package partition

// Tests for in-place fragment mutation: every update sequence must
// leave the fragmentation indistinguishable (per Validate and per
// re-Build) from fragmenting the mutated graph from scratch.

import (
	"math/rand"
	"testing"

	"dgs/internal/graph"
)

func randomMutationWorld(t *testing.T, r *rand.Rand) (*graph.Graph, *Fragmentation) {
	t.Helper()
	nv := 10 + r.Intn(40)
	b := graph.NewBuilder()
	for i := 0; i < nv; i++ {
		b.AddNode("X")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 3*nv; i++ {
		v, w := graph.NodeID(r.Intn(nv)), graph.NodeID(r.Intn(nv))
		k := uint64(v)<<32 | uint64(w)
		if !seen[k] {
			seen[k] = true
			b.AddEdge(v, w)
		}
	}
	g := b.MustBuild()
	fr, err := Random(g, 2+r.Intn(4), r)
	if err != nil {
		t.Fatal(err)
	}
	return g, fr
}

// applyOpsDirect mimics the distributed update session synchronously:
// mutate the source-owner fragment, then fix the watcher bookkeeping
// from the returned status changes.
func applyOpsDirect(t *testing.T, fr *Fragmentation, ops []graph.EdgeOp) {
	t.Helper()
	ov := fr.Overlay()
	dels, ins, err := graph.NormalizeOps(ov, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dels {
		f := fr.Frags[fr.Assign[e[0]]]
		dropped, err := f.DeleteEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if dropped {
			fr.Frags[fr.Assign[e[1]]].RemoveWatcher(e[1], f.ID)
		}
		if err := ov.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range ins {
		f := fr.Frags[fr.Assign[e[0]]]
		added, err := f.InsertEdge(e[0], e[1], fr.G.Label(e[1]))
		if err != nil {
			t.Fatal(err)
		}
		if added {
			fr.Frags[fr.Assign[e[1]]].AddWatcher(e[1], f.ID)
		}
		if err := ov.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	fr.RecountBoundary()
}

func TestMutateFragmentsMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g, fr := randomMutationWorld(t, r)
		if err := fr.Validate(); err != nil {
			t.Fatalf("trial %d: fresh build invalid: %v", trial, err)
		}
		// Draw a mixed op sequence: delete existing edges, insert absent.
		var ops []graph.EdgeOp
		g.Edges(func(v, w graph.NodeID) bool {
			if r.Intn(3) == 0 {
				ops = append(ops, graph.EdgeOp{Del: true, V: v, W: w})
			}
			return true
		})
		insSeen := map[uint64]bool{}
		for i := 0; i < g.NumNodes(); i++ {
			v, w := graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))
			k := uint64(v)<<32 | uint64(w)
			if !g.HasEdge(v, w) && !insSeen[k] {
				insSeen[k] = true
				ops = append(ops, graph.EdgeOp{V: v, W: w})
			}
		}
		applyOpsDirect(t, fr, ops)
		if err := fr.Validate(); err != nil {
			t.Fatalf("trial %d: mutated fragmentation invalid: %v", trial, err)
		}
		// Rebuild from the materialized current graph with the same
		// assignment: every derived statistic must agree.
		fresh, err := Build(fr.CurrentGraph(), fr.Assign, fr.NumFragments())
		if err != nil {
			t.Fatalf("trial %d: rebuild: %v", trial, err)
		}
		if fr.Vf() != fresh.Vf() || fr.Ef() != fresh.Ef() {
			t.Fatalf("trial %d: boundary stats diverge: mutated (Vf=%d,Ef=%d) rebuilt (Vf=%d,Ef=%d)",
				trial, fr.Vf(), fr.Ef(), fresh.Vf(), fresh.Ef())
		}
		for i, f := range fr.Frags {
			ff := fresh.Frags[i]
			if f.NumEdges() != ff.NumEdges() || f.NumCrossing() != ff.NumCrossing() {
				t.Fatalf("trial %d frag %d: edge counts diverge (%d/%d vs %d/%d)",
					trial, i, f.NumEdges(), f.NumCrossing(), ff.NumEdges(), ff.NumCrossing())
			}
			if len(f.Virtual) != len(ff.Virtual) || len(f.InNodes) != len(ff.InNodes) {
				t.Fatalf("trial %d frag %d: boundary sets diverge", trial, i)
			}
			for j := range f.Virtual {
				if f.Virtual[j] != ff.Virtual[j] {
					t.Fatalf("trial %d frag %d: virtual sets diverge", trial, i)
				}
			}
		}
	}
}

func TestFragmentMutationErrors(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("X")
	}
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.MustBuild()
	fr, err := Build(g, []int32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f0 := fr.Frags[0]
	if _, err := f0.DeleteEdge(2, 3); err == nil {
		t.Fatal("deleting with a foreign source must error")
	}
	if _, err := f0.DeleteEdge(0, 3); err == nil {
		t.Fatal("deleting an absent edge must error")
	}
	if _, err := f0.InsertEdge(0, 1, 0); err == nil {
		t.Fatal("inserting a present edge must error")
	}
	// Dropping the only crossing edge retires the virtual node and the
	// watcher entry.
	dropped, err := f0.DeleteEdge(0, 2)
	if err != nil || !dropped {
		t.Fatalf("dropped=%v err=%v", dropped, err)
	}
	if f0.IsVirtual(2) {
		t.Fatal("virtual node must be retired with its last crossing edge")
	}
	f1 := fr.Frags[1]
	if !f1.RemoveWatcher(2, 0) {
		t.Fatal("watcher removal must retire the in-node")
	}
	fr.RecountBoundary()
	if fr.Vf() != 0 || fr.Ef() != 0 {
		t.Fatalf("boundary stats not retired: Vf=%d Ef=%d", fr.Vf(), fr.Ef())
	}
}
