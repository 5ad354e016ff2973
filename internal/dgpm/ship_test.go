package dgpm

// What dGPM ships: a falsified in-node variable X(u,v) goes to the sites
// watching v only if some receiver reads it. A root u of Q (no parent)
// feeds no counter and no pushed equation anywhere, so X(u,v) is never
// shipped — the rule dGPMd applies to its top-rank variables.

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/wire"
)

const algoShipSpy = "test-dgpm-shipspy"

// received collects every falsified pair a shipSpy site was sent.
var received struct {
	mu    sync.Mutex
	pairs []wire.VarRef
}

// shipSpy is a real dGPM site that records the Falsify messages it
// receives. EndRun is promoted: the executor sees a cluster.RunEnder.
type shipSpy struct{ *site }

func (s shipSpy) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	if f, ok := p.(*wire.Falsify); ok {
		received.mu.Lock()
		received.pairs = append(received.pairs, f.Pairs...)
		received.mu.Unlock()
	}
	s.site.Recv(ctx, from, p)
}

func init() {
	cluster.RegisterAlgorithm(algoShipSpy, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		cfg, err := DecodeConfig(spec.Config)
		if err != nil {
			return nil, err
		}
		return shipSpy{newSite(q, frag, assign, cfg, nil, preparedKey(spec.Query, spec.Plan))}, nil
	})
}

// spyShipped runs dGPM under cfg with shipSpy sites and returns every
// falsified pair a site was sent.
func spyShipped(t *testing.T, q *pattern.Pattern, fr *partition.Fragmentation, cfg Config) []wire.VarRef {
	t.Helper()
	received.mu.Lock()
	received.pairs = nil
	received.mu.Unlock()
	ctx := context.Background()
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	spec := sessionSpec(q, cfg, nil, 0)
	spec.Algo = algoShipSpy
	_, _, err := c.Evaluate(ctx, spec, &cluster.Collector{}, func(sess *cluster.Session) error {
		if err := sess.Phase(ctx, &wire.Control{Op: OpStart}); err != nil {
			return err
		}
		return sess.Phase(ctx, &wire.Control{Op: OpReport})
	})
	if err != nil {
		t.Fatal(err)
	}
	received.mu.Lock()
	defer received.mu.Unlock()
	return received.pairs
}

var shipConfigs = []Config{DefaultConfig(), NOptConfig(), {Incremental: true}, {Incremental: true, Push: true, Theta: 0}}

func TestRootVariablesNeverShipped(t *testing.T) {
	// Q: A → B → C. Fragment 0 holds b0 (B, no C child) and a0 (A, no B
	// child); fragment 1 holds a1 → b0 and d1 → a0, so it watches both.
	// X(B,b0) and X(A,a0) die in fragment 0's partial evaluation; only
	// X(B,b0) has a reader.
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nnode c C\nedge a b\nedge b c")
	b := graph.NewBuilderDict(d)
	b0, a0 := b.AddNode("B"), b.AddNode("A")
	a1, d1 := b.AddNode("A"), b.AddNode("D")
	b.AddEdge(a1, b0)
	b.AddEdge(d1, a0)
	fr := mustPartition(t, b.MustBuild(), []int32{0, 0, 1, 1})
	want := []wire.VarRef{{U: 1, V: uint32(b0)}}
	for _, cfg := range shipConfigs {
		if got := spyShipped(t, q, fr, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: shipped %v, want only %v", cfg, got, want)
		}
	}

	// And on random worlds: no site is ever sent a root's variable.
	var total int
	for seed := int64(1); seed <= 150; seed++ {
		q, _, fr := randomCase(rand.New(rand.NewSource(seed)))
		for _, cfg := range shipConfigs {
			for _, r := range spyShipped(t, q, fr, cfg) {
				if len(q.Pred(pattern.QNode(r.U))) == 0 {
					t.Fatalf("seed %d, %+v: shipped X(%d,%d), a root's variable", seed, cfg, r.U, r.V)
				}
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no random world shipped anything: the check guards nothing")
	}
}
