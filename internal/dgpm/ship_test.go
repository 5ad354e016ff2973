package dgpm

// What dGPM ships: a falsified in-node variable X(u,v) goes to the sites
// watching v only if some receiver reads it. A root u of Q (no parent)
// feeds no counter and no pushed equation anywhere, so X(u,v) is never
// shipped — the rule dGPMd applies to its top-rank variables.

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
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

const algoRerouteSpy = "test-dgpm-reroutespy"

// reroutes is the world algoRerouteSpy's sites report into: the sites
// themselves, every Falsify each was sent (by receiver, one entry per
// message), and how often a Reroute named a destination that already
// watched the node (primary) or that an earlier Reroute had named (repeat).
// Falsifications the test injects are not recorded.
var reroutes struct {
	mu              sync.Mutex
	sites           map[int]*site
	got             map[int][][]wire.VarRef
	primary, repeat int
}

type rerouteSpy struct{ *site }

func (s rerouteSpy) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	reroutes.mu.Lock()
	switch m := p.(type) {
	case *wire.Falsify:
		if from != cluster.Coordinator { // the test's own injections are not shipped
			reroutes.got[ctx.Self()] = append(reroutes.got[ctx.Self()], slices.Clone(m.Pairs))
		}
	case *wire.Reroute:
		for _, v := range m.Nodes {
			if s.eng == nil {
				break
			}
			li, ok := s.eng.vt.Find(v)
			switch {
			case !ok || li >= s.eng.nl:
			case slices.Contains(s.frag.InWatchers[v], int(m.Dest)):
				reroutes.primary++
			case s.extraWatch != nil && slices.Contains(s.extraWatch[li], int(m.Dest)):
				reroutes.repeat++
			}
		}
	}
	reroutes.mu.Unlock()
	s.site.Recv(ctx, from, p)
}

func init() {
	cluster.RegisterAlgorithm(algoRerouteSpy, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		cfg, err := DecodeConfig(spec.Config)
		if err != nil {
			return nil, err
		}
		s := newSite(q, frag, assign, cfg, nil, preparedKey(spec.Query, spec.Plan))
		reroutes.mu.Lock()
		reroutes.sites[frag.ID] = s
		reroutes.mu.Unlock()
		return rerouteSpy{s}, nil
	})
}

// checkShippedOnce holds what a rerouteSpy session sent against what its
// sites know at the end: no Falsify lists a variable twice, and each site
// was sent, over all messages, exactly the dead in-node variables with a
// reader whose node it watches or was rerouted to.
func checkShippedOnce(t *testing.T, what string) {
	t.Helper()
	reroutes.mu.Lock()
	defer reroutes.mu.Unlock()
	want := make(map[int]map[wire.VarRef]bool)
	add := func(d int, r wire.VarRef) {
		if want[d] == nil {
			want[d] = make(map[wire.VarRef]bool)
		}
		want[d][r] = true
	}
	for _, s := range reroutes.sites {
		for li, v := range s.eng.vis[:s.eng.nl] {
			if !s.eng.isIn[li] {
				continue
			}
			for _, r := range s.eng.DeadLocalVars(v) {
				if !s.read(pattern.QNode(r.U)) {
					continue
				}
				for _, d := range s.frag.InWatchers[v] {
					add(d, r)
				}
				if s.extraWatch != nil {
					for _, d := range s.extraWatch[li] {
						add(d, r)
					}
				}
			}
			if s.extraWatch != nil {
				row := slices.Clone(s.extraWatch[li])
				slices.Sort(row)
				if len(slices.Compact(row)) != len(s.extraWatch[li]) {
					t.Fatalf("%s: site %d reroutes node %d to %v, a destination twice", what, s.frag.ID, v, s.extraWatch[li])
				}
			}
		}
	}
	for d, msgs := range reroutes.got {
		union := make(map[wire.VarRef]bool)
		for _, refs := range msgs {
			seen := make(map[wire.VarRef]bool, len(refs))
			for _, r := range refs {
				if seen[r] {
					t.Fatalf("%s: a Falsify to site %d lists X(%d,%d) twice: %v", what, d, r.U, r.V, refs)
				}
				seen[r] = true
				union[r] = true
			}
		}
		if !maps.Equal(union, want[d]) {
			t.Fatalf("%s: site %d was sent %v, want %v", what, d, union, want[d])
		}
	}
	for d, refs := range want {
		if len(reroutes.got[d]) == 0 && len(refs) > 0 {
			t.Fatalf("%s: site %d was sent nothing, want %v", what, d, refs)
		}
	}
}

func resetReroutes() {
	reroutes.mu.Lock()
	defer reroutes.mu.Unlock()
	reroutes.sites = make(map[int]*site)
	reroutes.got = make(map[int][][]wire.VarRef)
	reroutes.primary, reroutes.repeat = 0, 0
}

// A Reroute may name a site that already watches the node, and two may
// name the same destination: route, which ships in kill order without a
// sort, must still send each watcher each falsified variable once.
func TestRerouteShipsOncePerWatcher(t *testing.T) {
	// Q: C → A → B. Fragment 0 owns a_0..a_{k-1}, each with its B-child
	// b_i on fragment 1 and a C-parent on fragment 2, which so watches
	// every a_i; and a_dead, with a C-parent on fragment 2 but no B-child,
	// whose X(A, a_dead) the partial evaluation falsifies. Fragment 3
	// watches nothing.
	const k = 5
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
		as, bs = append(as, a), append(bs, bn)
	}
	dead := node("A", 0)
	b.AddEdge(node("C", 2), dead)
	node("D", 3)
	fr := mustPartition(t, b.MustBuild(), assign)
	nodes := make([]uint32, 0, k+1)
	for _, a := range append(as, dead) {
		nodes = append(nodes, uint32(a))
	}

	ctx := context.Background()
	rerouteRun(t, q, fr, Config{Incremental: true}, func(sess *cluster.Session) error {
		if err := sess.Phase(ctx, &wire.Control{Op: OpStart}); err != nil {
			return err
		}
		// Fragment 2 already watches every node; fragment 3 is named twice.
		for _, dest := range []uint16{2, 3, 3} {
			sess.Inject(0, &wire.Reroute{Dest: dest, Nodes: nodes})
			if err := sess.WaitQuiesce(ctx); err != nil {
				return err
			}
		}
		// One run falsifies X(B, b_i) for all but the last i.
		for _, bn := range bs[:k-1] {
			sess.Inject(0, &wire.Falsify{Pairs: []wire.VarRef{{U: 2, V: uint32(bn)}}})
		}
		if err := sess.WaitQuiesce(ctx); err != nil {
			return err
		}
		return sess.Phase(ctx, &wire.Control{Op: OpReport})
	})
	if reroutes.primary != k+1 || reroutes.repeat != k+1 {
		t.Fatalf("the fixture rerouted %d nodes to a watcher and %d to a repeated destination, want %d each", reroutes.primary, reroutes.repeat, k+1)
	}
	checkShippedOnce(t, "fixture")
	var all []wire.VarRef // ascending: dead is the last node added
	for _, a := range append(as[:k-1:k-1], dead) {
		all = append(all, wire.VarRef{U: 1, V: uint32(a)})
	}
	for _, w := range []int{2, 3} {
		union := slices.Concat(reroutes.got[w]...)
		slices.SortFunc(union, compareRefs)
		if union = slices.Compact(union); !reflect.DeepEqual(union, all) {
			t.Fatalf("site %d was sent %v, want %v", w, union, all)
		}
	}

	// And where real pushes reroute: θ = 0 on random worlds.
	var primary, repeat int
	for seed := int64(1); seed <= 300; seed++ {
		q, g, fr := randomCase(rand.New(rand.NewSource(seed)))
		coord := rerouteRun(t, q, fr, Config{Incremental: true, Push: true}, func(sess *cluster.Session) error {
			if err := sess.Phase(ctx, &wire.Control{Op: OpStart}); err != nil {
				return err
			}
			return sess.Phase(ctx, &wire.Control{Op: OpReport})
		})
		checkShippedOnce(t, fmt.Sprintf("seed %d", seed))
		m, err := cluster.MatchFromPairs(q.NumNodes(), len(fr.Assign), coord.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		if want := simulation.HHK(q, g); !m.Canonical().Equal(want) {
			t.Fatalf("seed %d: answered %v, want %v", seed, m.Canonical(), want)
		}
		primary, repeat = primary+reroutes.primary, repeat+reroutes.repeat
	}
	t.Logf("random worlds: %d reroutes to a watcher, %d to a repeated destination", primary, repeat)
	if primary == 0 || repeat == 0 {
		t.Fatal("the random worlds no longer reroute to a watcher and to a repeated destination")
	}
}

// rerouteRun evaluates q on fr under cfg with rerouteSpy sites, driven by
// drive, and returns the coordinator's collector.
func rerouteRun(t *testing.T, q *pattern.Pattern, fr *partition.Fragmentation, cfg Config, drive func(*cluster.Session) error) *cluster.Collector {
	t.Helper()
	resetReroutes()
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	spec := sessionSpec(q, cfg, nil, 0)
	spec.Algo = algoRerouteSpy
	coord := &cluster.Collector{}
	if _, _, err := c.Evaluate(context.Background(), spec, coord, drive); err != nil {
		t.Fatal(err)
	}
	return coord
}
