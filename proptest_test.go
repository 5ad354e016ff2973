package dgs

// Property/metamorphic harness for mutable deployments: seeded random
// synthetic graphs × random update streams, asserting after every batch
// that
//
//   1. Maintained.Current() equals the centralized recompute oracle
//      (Simulate over the materialized current graph) — the incremental
//      == from-scratch property of [13];
//   2. a one-shot Query on the live (mutated) deployment agrees;
//   3. a FRESH deployment built from the materialized current graph
//      with the same assignment agrees — the metamorphic check that
//      in-place fragment mutation is indistinguishable from
//      re-fragmenting;
//   4. the fragmentation still satisfies every §2.2 structural
//      invariant (partition.Validate).
//
// Failures print the reproducing seed. Run under -race in CI.

import (
	"context"
	"math/rand"
	"testing"
)

// propCase is one randomized scenario drawn from a seed.
type propCase struct {
	seed    int64
	dict    *Dict
	g       *Graph
	part    *Partition
	q       *Pattern
	batches [][]EdgeOp
}

func drawCase(t *testing.T, seed int64) *propCase {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	dict := NewDict()
	nv := 40 + r.Intn(160)
	ne := nv + r.Intn(3*nv)
	nlabels := 2 + r.Intn(4)
	g := syntheticForProp(dict, nv, ne, nlabels, r.Int63())
	nf := 2 + r.Intn(5)
	part, err := PartitionWith(g, "random", nf, WithPartitionSeed(r.Int63()))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	qn := 3 + r.Intn(3)
	q := GenCyclicPatternOver(dict, qn, qn+r.Intn(3), nlabels, r.Int63())
	nDel := 1 + r.Intn(ne/3+1)
	nIns := r.Intn(ne / 4)
	if r.Intn(3) == 0 {
		nIns = 0 // deletion-only streams exercise the incremental path alone
	}
	stream := GenUpdateStream(part.CurrentGraph(), nDel, nIns, r.Int63())
	return &propCase{
		seed:    seed,
		dict:    dict,
		g:       g,
		part:    part,
		q:       q,
		batches: BatchOps(stream, 1+r.Intn(10)),
	}
}

// syntheticForProp builds a small synthetic graph over a reduced
// alphabet so queries have non-trivial candidate sets.
func syntheticForProp(dict *Dict, nv, ne, nlabels int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewGraphBuilder(dict)
	labels := ExperimentLabels()[:nlabels]
	for i := 0; i < nv; i++ {
		b.AddNode(labels[r.Intn(nlabels)])
	}
	for i := 0; i < ne; i++ {
		b.AddEdge(NodeID(r.Intn(nv)), NodeID(r.Intn(nv)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyMaintainedVsOracle(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for s := 0; s < seeds; s++ {
		seed := int64(1000 + 37*s)
		t.Run("", func(t *testing.T) {
			t.Parallel()
			runPropCase(t, drawCase(t, seed))
		})
	}
}

func runPropCase(t *testing.T, pc *propCase) {
	ctx := context.Background()
	dep, err := Deploy(pc.part)
	if err != nil {
		t.Fatalf("seed %d: %v", pc.seed, err)
	}
	defer dep.Close()
	w, err := dep.Watch(ctx, pc.q)
	if err != nil {
		t.Fatalf("seed %d: %v", pc.seed, err)
	}
	defer w.Close()
	if !w.Current().Equal(Simulate(pc.q, pc.part.CurrentGraph())) {
		t.Fatalf("seed %d: initial relation diverges from oracle", pc.seed)
	}
	assign := pc.part.Assignment()
	for bi, batch := range pc.batches {
		if _, err := dep.Apply(ctx, batch); err != nil {
			t.Fatalf("seed %d batch %d: %v", pc.seed, bi, err)
		}
		cur := pc.part.CurrentGraph()
		oracle := Simulate(pc.q, cur)

		// (1) incremental maintenance == recompute.
		if !w.Current().Equal(oracle) {
			t.Fatalf("seed %d batch %d: maintained relation diverges from oracle\nwant %v\ngot  %v",
				pc.seed, bi, oracle, w.Current())
		}
		// (2) one-shot query on the mutated deployment.
		res, err := dep.Query(ctx, pc.q)
		if err != nil {
			t.Fatalf("seed %d batch %d: %v", pc.seed, bi, err)
		}
		if !res.Match.Equal(oracle) {
			t.Fatalf("seed %d batch %d: live query diverges from oracle", pc.seed, bi)
		}
		// (4) structural invariants survive in-place mutation.
		if err := pc.part.fr.Validate(); err != nil {
			t.Fatalf("seed %d batch %d: fragmentation invariant broken: %v", pc.seed, bi, err)
		}
		// (3) metamorphic: a fresh deployment of the materialized current
		// graph under the same assignment gives the same answer. Checked
		// on the final batch only — it re-fragments the world.
		if bi == len(pc.batches)-1 {
			part2, err := PartitionFromAssign(cur, assign)
			if err != nil {
				t.Fatalf("seed %d: refragment: %v", pc.seed, err)
			}
			res2, err := queryOnce(part2, pc.q)
			if err != nil {
				t.Fatalf("seed %d: fresh deployment: %v", pc.seed, err)
			}
			if !res2.Match.Equal(oracle) {
				t.Fatalf("seed %d: fresh-deployment query diverges from oracle", pc.seed)
			}
		}
	}
}

// TestPropertyDeletionOnlyVsCentralizedIncremental holds the distributed
// maintenance on deletion-only streams against the centralized oracle:
// after every batch, a standing query's relation equals Simulate on the
// mutated graph.
func TestPropertyDeletionOnlyVsCentralizedIncremental(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	ctx := context.Background()
	for s := 0; s < seeds; s++ {
		seed := int64(9000 + 101*s)
		t.Run("", func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			dict := NewDict()
			nv := 30 + r.Intn(120)
			ne := nv + r.Intn(2*nv)
			nlabels := 2 + r.Intn(3)
			g := syntheticForProp(dict, nv, ne, nlabels, r.Int63())
			part, err := PartitionWith(g, "random", 2+r.Intn(4), WithPartitionSeed(r.Int63()))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			q := GenCyclicPatternOver(dict, 3+r.Intn(3), 4+r.Intn(4), nlabels, r.Int63())
			dep, err := Deploy(part)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			defer dep.Close()
			w, err := dep.Watch(ctx, q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			stream := GenUpdateStream(g, 1+r.Intn(ne/2+1), 0, r.Int63())
			for bi, batch := range BatchOps(stream, 1+r.Intn(6)) {
				if _, err := dep.Apply(ctx, batch); err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, bi, err)
				}
				oracle := Simulate(q, part.CurrentGraph())
				if !w.Current().Equal(oracle) {
					t.Fatalf("seed %d batch %d: distributed maintenance diverges", seed, bi)
				}
			}
		})
	}
}
