package dgpm

// Incremental lEval over a drained run (§4.1: "the set of falsified
// variables received"): k falsifications queued at a site are applied
// one by one but shipped once — one deduplicated message per watcher,
// one round — and what is shipped, and what the site ends up matching,
// is what message-at-a-time evaluation ships and matches.

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/wire"
)

const (
	algoBatchProbe = "test-dgpm-batch"
	opPark         = 99 // parks fragment 0's site inside Recv until the gate opens
)

// batchProbe is the world algoBatchProbe's sites report into: fragment 0
// runs the real dGPM site behind a parking gate, every other fragment
// records the falsifications it is sent.
type batchProbe struct {
	entered, gate chan struct{}
	x             *site
	mu            sync.Mutex
	got           map[int][][]wire.VarRef // by receiving site, in arrival order
}

var probe *batchProbe

type parkedSite struct {
	*site // EndRun is promoted: the executor sees a cluster.RunEnder
	fx    *batchProbe
}

func (p parkedSite) Recv(ctx *cluster.Ctx, from int, pl wire.Payload) {
	if c, ok := pl.(*wire.Control); ok && c.Op == opPark {
		p.fx.entered <- struct{}{}
		<-p.fx.gate
		return
	}
	p.site.Recv(ctx, from, pl)
}

func init() {
	cluster.RegisterAlgorithm(algoBatchProbe, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		fx := probe
		if frag.ID != 0 {
			return cluster.HandlerFunc(func(ctx *cluster.Ctx, _ int, p wire.Payload) {
				if f, ok := p.(*wire.Falsify); ok {
					fx.mu.Lock()
					fx.got[ctx.Self()] = append(fx.got[ctx.Self()], slices.Clone(f.Pairs))
					fx.mu.Unlock()
				}
			}), nil
		}
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		cfg, err := DecodeConfig(spec.Config)
		if err != nil {
			return nil, err
		}
		fx.x = newSite(q, frag, assign, cfg, preparedKey(spec.Query), releaseExchange)
		return parkedSite{fx.x, fx}, nil
	})
}

func TestQueuedFalsificationsShipOncePerWatcher(t *testing.T) {
	// Q: C → A → B. Fragment 0 owns a_0..a_{k-1}; each a_i has its only
	// B-child b_i on fragment 1 and a C-parent on each of fragments 2 and
	// 3, which therefore both watch X(A, a_i).
	const k = 6
	d := graph.NewDict()
	q := pattern.MustParse(d, "node c C\nnode a A\nnode b B\nedge c a\nedge a b")
	b := graph.NewBuilderDict(d)
	var assign []int32
	node := func(label string, site int32) graph.NodeID {
		assign = append(assign, site)
		return b.AddNode(label)
	}
	var as, bs []graph.NodeID
	for i := 0; i < k; i++ {
		a, bn := node("A", 0), node("B", 1)
		b.AddEdge(a, bn)
		b.AddEdge(node("C", 2), a)
		b.AddEdge(node("C", 3), a)
		as, bs = append(as, a), append(bs, bn)
	}
	fr := mustPartition(t, b.MustBuild(), assign)
	ctx := context.Background()

	type outcome struct {
		shipped map[int][][]wire.VarRef
		local   []wire.VarRef
		rounds  int64
	}
	drive := func(batched bool) outcome {
		fx := &batchProbe{entered: make(chan struct{}), gate: make(chan struct{}), got: make(map[int][][]wire.VarRef)}
		probe = fx
		c := cluster.NewLocal(fr, cluster.Network{})
		defer c.Shutdown()
		spec := sessionSpec(q, DefaultConfig(), 7)
		spec.Algo = algoBatchProbe
		s, err := c.OpenSession(cluster.SessionQuery, spec, nopHandler{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		quiesce := func() {
			t.Helper()
			if err := s.WaitQuiesce(ctx); err != nil {
				t.Fatal(err)
			}
		}
		s.Inject(0, &wire.Control{Op: OpStart})
		quiesce()
		if len(fx.got) != 0 {
			t.Fatalf("optimistic partial evaluation shipped %v", fx.got)
		}
		if batched {
			s.Inject(0, &wire.Control{Op: opPark})
			<-fx.entered
		}
		// X(B, b_i) falsified for all but the last i, one message each;
		// b_0's arrives twice.
		for _, i := range []int{0, 1, 2, 0, 3, 4} {
			s.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 2, V: uint32(bs[i])}}})
			if !batched {
				quiesce()
			}
		}
		if batched {
			close(fx.gate)
			quiesce()
		}
		stats := s.Stats()
		s.Close()
		tr, err := s.Trace(ctx)
		if err != nil || tr == nil {
			t.Fatalf("trace: %v, %v", tr, err)
		}
		if _, _, _, _, _, rounds := tr.Totals(); rounds != stats.Rounds {
			t.Fatalf("batched=%v: trace rounds %d != Stats.Rounds %d", batched, rounds, stats.Rounds)
		}
		return outcome{fx.got, fx.x.eng.LocalMatches(), stats.Rounds}
	}

	ref, got := drive(false), drive(true)
	var all []wire.VarRef
	for _, a := range as[:k-1] {
		all = append(all, wire.VarRef{U: 1, V: uint32(a)})
	}
	for _, w := range []int{2, 3} {
		if len(ref.shipped[w]) != k-1 {
			t.Fatalf("reference: watcher %d got %d messages, want one per fresh falsification (%d)", w, len(ref.shipped[w]), k-1)
		}
		if want := [][]wire.VarRef{all}; !reflect.DeepEqual(got.shipped[w], want) {
			t.Fatalf("watcher %d got %v\nwant one message %v", w, got.shipped[w], want)
		}
		union := slices.Concat(ref.shipped[w]...)
		slices.SortFunc(union, compareRefs)
		if !reflect.DeepEqual(union, all) {
			t.Fatalf("reference shipped watcher %d the pairs %v, want %v", w, union, all)
		}
	}
	if len(ref.shipped) != 2 || len(got.shipped) != 2 {
		t.Fatalf("only the two watchers may be sent anything: reference %v, batched %v", ref.shipped, got.shipped)
	}
	if want := []wire.VarRef{{U: 1, V: uint32(as[k-1])}}; !reflect.DeepEqual(ref.local, want) || !reflect.DeepEqual(got.local, want) {
		t.Fatalf("local matches: batched %v, reference %v, want %v", got.local, ref.local, want)
	}
	// One round per evaluation: the reference evaluates per message (the
	// duplicate included), the drained run once.
	if ref.rounds != k || got.rounds != 1 {
		t.Fatalf("rounds: reference %d (want %d), batched %d (want 1)", ref.rounds, k, got.rounds)
	}
}
