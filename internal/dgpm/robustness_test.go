package dgpm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgs/internal/graph"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// Fault injection: duplicated falsification deliveries must not change
// the result — the protocol's idempotence is what makes the push
// operation's redundant routing safe (§4.2).
func TestQuickDuplicateDeliveryHarmless(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, g, fr := randomCase(r)
		want := simulation.HHK(q, g)

		// Engine-level: apply the same external falsifications twice, in
		// shuffled order, to one fragment's engine; alive state must
		// match a single ordered application.
		if fr.NumFragments() > 1 {
			frag := fr.Frags[0]
			var ext []wire.VarRef
			for _, v := range frag.Virtual {
				for u := 0; u < q.NumNodes(); u++ {
					if q.Label(pattern.QNode(u)) == frag.Labels[v] && r.Intn(2) == 0 {
						ext = append(ext, wire.VarRef{U: uint16(u), V: uint32(v)})
					}
				}
			}
			e1 := NewEngine(q, frag)
			e1.ApplyFalsifications(ext)
			e2 := NewEngine(q, frag)
			perm := r.Perm(len(ext))
			for _, i := range perm {
				e2.ApplyFalsifications([]wire.VarRef{ext[i]})
			}
			e2.ApplyFalsifications(ext) // full duplicate batch
			m1, m2 := e1.LocalMatches(), e2.LocalMatches()
			if len(m1) != len(m2) {
				t.Logf("seed %d: duplicate delivery changed match count %d vs %d", seed, len(m1), len(m2))
				return false
			}
		}

		// System-level: the full protocol still agrees with centralized.
		got, _ := run(q, fr, DefaultConfig())
		return want.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The incremental unevaluated-variable counters must agree with a brute
// force recount at every point of a random falsification sequence.
func TestQuickUnevaluatedCountersConsistent(t *testing.T) {
	recount := func(e *Engine, q *pattern.Pattern) (int, int) {
		inV, virtV := 0, 0
		for li := int32(0); li < e.nl; li++ {
			if !e.isIn[li] {
				continue
			}
			for u := 0; u < q.NumNodes(); u++ {
				if e.alive[u][li] && !e.constTrue[u] {
					inV++
				}
			}
		}
		for vi := e.nl; vi < int32(len(e.vis)); vi++ {
			for u := 0; u < q.NumNodes(); u++ {
				if e.alive[u][vi] && !e.constTrue[u] {
					virtV++
				}
			}
		}
		return inV, virtV
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, _, fr := randomCase(r)
		for _, frag := range fr.Frags {
			e := NewEngine(q, frag)
			for round := 0; round < 4; round++ {
				gi, gv := e.UnevaluatedCounts()
				wi, wv := recount(e, q)
				if gi != wi || gv != wv {
					t.Logf("seed %d frag %d round %d: counters (%d,%d) vs recount (%d,%d)",
						seed, frag.ID, round, gi, gv, wi, wv)
					return false
				}
				// Random external falsification.
				if len(frag.Virtual) == 0 {
					break
				}
				v := frag.Virtual[r.Intn(len(frag.Virtual))]
				u := pattern.QNode(r.Intn(q.NumNodes()))
				e.ApplyFalsifications([]wire.VarRef{{U: uint16(u), V: uint32(v)}})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Rounds statistics must reflect actual message processing.
func TestRoundsAccounting(t *testing.T) {
	q, g, _, assign := fig1()
	_ = g
	fr := mustPartition(t, g, assign)
	_, stats := run(q, fr, DefaultConfig())
	if stats.Rounds < 0 {
		t.Fatal("negative rounds")
	}
	// On Fig-1 with the cycle intact everything matches, so at most a few
	// initial falsifications flow.
	if stats.DataMsgs > int64(fr.Ef()*q.NumNodes()) {
		t.Fatalf("message count %d exceeds |Ef||Vq| = %d", stats.DataMsgs, fr.Ef()*q.NumNodes())
	}
}

// Boolean evaluation must agree with the data-selecting result on random
// inputs (§4.1 "Boolean queries").
func TestQuickBooleanAgreesWithSelecting(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, g, fr := randomCase(r)
		want := simulation.HHK(q, g)
		got, _ := run(q, fr, DefaultConfig())
		return got.Ok() == want.Ok()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A pattern label absent from the whole graph must yield ∅ with zero
// data shipment when the emptiness is locally decidable everywhere.
func TestAbsentLabelShipsAlmostNothing(t *testing.T) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode z ZZZ\nedge a z")
	b := graph.NewBuilderDict(d)
	for i := 0; i < 40; i++ {
		b.AddNode("A")
	}
	for i := 0; i < 39; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.MustBuild()
	assign := make([]int32, 40)
	for i := range assign {
		assign[i] = int32(i % 4)
	}
	fr := mustPartition(t, g, assign)
	got, stats := run(q, fr, DefaultConfig())
	if got.NumPairs() != 0 {
		t.Fatal("must be empty")
	}
	// Every X(a,·) is falsifiable locally (no ZZZ anywhere), but in-node
	// falsifications are still announced to watchers; the total is
	// bounded by the analytic limit.
	if stats.DataBytes > int64(fr.Ef()*q.NumNodes()*6+int(stats.DataMsgs)*5) {
		t.Fatalf("shipped too much: %d bytes", stats.DataBytes)
	}
}
