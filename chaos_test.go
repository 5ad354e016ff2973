package dgs

// The chaos arm of the property harness: the same seeded random graphs
// × update streams as proptest_test.go, but with a scripted kill /
// half-open / recover schedule injected through the faultnet transport
// decorator. The sites run on codec-cloned fragments (like daemons own
// their shipped copies), the driver retains its own fragmentation, and
// after every recovery the maintained relation, live queries and the
// structural invariants must all match the centralized oracle.
//
// Determinism: the whole schedule is drawn up front from the seed,
// faults are injected at batch boundaries from the test goroutine
// (faultnet reports losses synchronously), and recovery is manual — no
// wall-clock detection in the loop. Failures print the reproducing
// seed. Runs under -race in CI.

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/partition"
	"dgs/internal/transport/faultnet"
)

func TestPropertyChaosFailover(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for s := 0; s < seeds; s++ {
		seed := int64(4000 + 53*s)
		t.Run("", func(t *testing.T) {
			t.Parallel()
			runChaosCase(t, seed)
		})
	}
}

// chaosDeploy builds a deployment whose sites live behind faultnet on
// codec-cloned fragments, so killing a site and re-hosting it from the
// driver's retained fragmentation means something: the two sides hold
// distinct state, exactly like a daemon deployment.
func chaosDeploy(t *testing.T, seed int64, part *Partition) (*Deployment, *faultnet.Net) {
	t.Helper()
	fn := chaosNet(seed, part)
	dep, err := Deploy(part, WithTransport(fn))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !dep.Remote() {
		t.Fatalf("seed %d: a faultnet deployment must count as remote (driver-side replay)", seed)
	}
	return dep, fn
}

// chaosNet hosts codec clones of part's fragments behind faultnet.
func chaosNet(seed int64, part *Partition) *faultnet.Net {
	src := part.fr
	clones := make([]*partition.Fragment, len(src.Frags))
	for i, f := range src.Frags {
		clones[i] = partition.CloneFragment(f)
	}
	innerFr := partition.FragmentationFromParts(src.Assign, clones)
	return faultnet.Wrap(cluster.NewInProc(part.NumFragments(), innerFr, cluster.Network{}), faultnet.Options{Seed: seed})
}

// maintOpenCounter counts the maintenance sessions opened on a faultnet
// transport.
type maintOpenCounter struct {
	*faultnet.Net
	opened atomic.Int64
}

func (c *maintOpenCounter) Open(qid uint64, kind cluster.SessionKind, spec cluster.SessionSpec) error {
	if kind == cluster.SessionMaintenance {
		c.opened.Add(1)
	}
	return c.Net.Open(qid, kind, spec)
}

// TestRecoverReevaluatesSharedWatchOnce: the standing queries share one
// maintenance session, so a recovery re-evaluates it once — one new
// maintenance session however many handles read it — and every handle
// then serves the oracle's relation for the current graph.
func TestRecoverReevaluatesSharedWatchOnce(t *testing.T) {
	ctx := context.Background()
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, 77)
	part, err := PartitionRandom(g, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	tr := &maintOpenCounter{Net: chaosNet(77, part)}
	dep, err := Deploy(part, WithTransport(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	var qs []*Pattern
	var ws []*Maintained
	for _, src := range []string{
		"node a l0\nnode b l1\nedge a b\nedge b a",
		"node a l0\nnode b l1\nedge a b",
		"node a l1\nnode b l2\nnode c l0\nedge a b\nedge b c",
		"node p l1\nnode q l0\nedge p q\nedge q p", // the first, renamed
	} {
		q, err := ParsePattern(dict, src)
		if err != nil {
			t.Fatal(err)
		}
		w, err := dep.Watch(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		qs, ws = append(qs, q), append(ws, w)
	}
	if ws[3].block != ws[0].block || ws[1].block == ws[0].block || ws[2].block == ws[1].block {
		t.Fatal("want three distinct blocks, the renamed pattern joining the first")
	}
	// Move the graph off its deploy-time state, so the recovery has to
	// re-evaluate against what the driver retained.
	if _, err := dep.Apply(ctx, GenUpdateStream(part.CurrentGraph(), 30, 10, 78)); err != nil {
		t.Fatal(err)
	}

	before := tr.opened.Load()
	tr.Kill(2)
	if _, err := dep.Query(ctx, qs[0]); !errors.Is(err, ErrSiteLost) {
		t.Fatalf("query after kill = %v, want ErrSiteLost", err)
	}
	tr.Revive(2)
	if err := dep.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if n := tr.opened.Load() - before; n != 1 {
		t.Fatalf("Recover opened %d maintenance sessions for %d handles on one shard, want 1", n, len(ws))
	}
	cur := part.CurrentGraph()
	for i, w := range ws {
		if w.Stale() {
			t.Fatalf("watch %d is stale after Recover", i)
		}
		if !w.Current().Equal(Simulate(qs[i], cur)) {
			t.Fatalf("watch %d diverges from Simulate on the current graph after Recover", i)
		}
	}
}

func runChaosCase(t *testing.T, seed int64) {
	pc := drawCase(t, seed)
	ctx := context.Background()
	dep, fn := chaosDeploy(t, seed, pc.part)
	defer dep.Close()
	w, err := dep.Watch(ctx, pc.q)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	defer w.Close()
	if !w.Current().Equal(Simulate(pc.q, pc.part.CurrentGraph())) {
		t.Fatalf("seed %d: initial relation diverges from oracle", pc.seed)
	}

	n := pc.part.NumFragments()
	r := rand.New(rand.NewSource(seed ^ 0x5eedfa11))
	kills := 0
	for bi, batch := range pc.batches {
		switch r.Intn(4) {
		case 1:
			// Kill → operations fail retryably → revive + recover.
			site := r.Intn(n)
			fn.Kill(site)
			kills++
			if _, err := dep.Query(ctx, pc.q); !errors.Is(err, ErrSiteLost) {
				t.Fatalf("seed %d batch %d: query after kill(%d) = %v, want ErrSiteLost", seed, bi, site, err)
			}
			fn.Revive(site)
			if err := dep.Recover(ctx); err != nil {
				t.Fatalf("seed %d batch %d: recover after kill(%d): %v", seed, bi, site, err)
			}
		case 2:
			// Kill, then try the batch while down: it must fail with the
			// retryable sentinel and the graph must stay pre-batch; the
			// recovery then re-ships every fragment (interrupted-apply
			// safety) and the SAME batch applies cleanly below.
			site := r.Intn(n)
			fn.Kill(site)
			kills++
			if _, err := dep.Apply(ctx, batch); !errors.Is(err, ErrSiteLost) {
				t.Fatalf("seed %d batch %d: apply after kill(%d) = %v, want ErrSiteLost", seed, bi, site, err)
			}
			fn.Revive(site)
			if err := dep.Recover(ctx); err != nil {
				t.Fatalf("seed %d batch %d: recover after interrupted apply: %v", seed, bi, err)
			}
		case 3:
			// Half-open: the site is silently dead, so a query hangs
			// until its deadline; detection then unblocks recovery.
			site := r.Intn(n)
			fn.HalfOpen(site)
			kills++
			qctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
			_, err := dep.Query(qctx, pc.q)
			cancel()
			if err == nil {
				t.Fatalf("seed %d batch %d: query against half-open site %d succeeded", seed, bi, site)
			}
			fn.DetectSilent()
			fn.Revive(site)
			if err := dep.Recover(ctx); err != nil {
				t.Fatalf("seed %d batch %d: recover after half-open: %v", seed, bi, err)
			}
		}
		if _, err := dep.Apply(ctx, batch); err != nil {
			t.Fatalf("seed %d batch %d: %v", seed, bi, err)
		}
		cur := pc.part.CurrentGraph()
		oracle := Simulate(pc.q, cur)
		if !w.Current().Equal(oracle) {
			t.Fatalf("seed %d batch %d: maintained relation diverges from oracle after chaos", seed, bi)
		}
		res, err := dep.Query(ctx, pc.q)
		if err != nil {
			t.Fatalf("seed %d batch %d: %v", seed, bi, err)
		}
		if !res.Match.Equal(oracle) {
			t.Fatalf("seed %d batch %d: live query diverges from oracle after chaos", seed, bi)
		}
		if err := pc.part.fr.Validate(); err != nil {
			t.Fatalf("seed %d batch %d: fragmentation invariant broken: %v", seed, bi, err)
		}
	}
	// The schedule must actually have exercised failover for most seeds;
	// a seed that drew no faults still verified the clean path.
	if kills > 0 && dep.Failovers() < int64(1) {
		t.Fatalf("seed %d: %d kills but no recorded failover", seed, kills)
	}
}
