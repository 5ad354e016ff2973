package dgpm

import (
	"context"
	"slices"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/pattern"
	"dgs/internal/wire"
)

// dGPM, dGPMd and dGPMt run on one site type with one Recv, and after
// the start signal each release reads its own payload kinds only. A
// payload of another release must leave a started site as it was:
// nothing sent, no round counted, no panic, and the same local matches.
func TestForeignPayloadsIgnored(t *testing.T) {
	_, g, _, assign := fig1()
	fr := mustPartition(t, g, assign)
	q := pattern.MustParse(g.Dict(), "node YB YB\nnode YF YF\nnode F F\nedge YB YF\nedge YB F\nedge YF F")

	// Every label-consistent variable of G, and every node: references a
	// site would act on, were it to read the payload.
	var all []wire.VarRef
	var nodes []uint32
	for v := range graph.NodeID(g.NumNodes()) {
		nodes = append(nodes, uint32(v))
		for u := range pattern.QNode(q.NumNodes()) {
			if q.Label(u) == g.Label(v) {
				all = append(all, wire.VarRef{U: uint16(u), V: uint32(v)})
			}
		}
	}
	eqs := []wire.Equation{{Target: all[0], Groups: [][]wire.VarRef{{all[1]}}}}
	foreign := map[string][]wire.Payload{
		Algo:     {&wire.RankBatch{Rank: 1, Pairs: all}, &wire.Values{False: all}},
		AlgoDAG:  {&wire.Falsify{Pairs: all}, &wire.Push{Origin: 1, Eqs: eqs}, &wire.Reroute{Dest: 1, Nodes: nodes}, &wire.Values{False: all}},
		AlgoTree: {&wire.RankBatch{Rank: 1, Pairs: all}, &wire.Falsify{Pairs: all}},
	}
	ctx := context.Background()
	for _, algo := range []string{Algo, AlgoDAG, AlgoTree} {
		t.Run(algo, func(t *testing.T) {
			c := cluster.NewLocal(fr, cluster.Network{})
			defer c.Shutdown()
			factory, ok := cluster.ResolveAlgorithm(algo)
			if !ok {
				t.Fatalf("%s is not registered", algo)
			}
			spec := cluster.SessionSpec{Algo: algo, Query: pattern.EncodeBinary(q), Config: EncodeConfig(DefaultConfig())}
			sites := make([]*site, len(fr.Frags))
			handlers := make([]cluster.Handler, len(fr.Frags))
			for i, f := range fr.Frags {
				h, err := factory(spec, f, fr.Assign)
				if err != nil {
					t.Fatal(err)
				}
				sites[i], handlers[i] = h.(*site), h
			}
			sess := c.NewSession(handlers, &cluster.Collector{})
			defer sess.Close()
			if err := sess.Phase(ctx, &wire.Control{Op: OpStart}); err != nil {
				t.Fatal(err)
			}
			before := sess.Stats()
			matches := make([][]wire.VarRef, len(sites))
			for i, s := range sites {
				matches[i] = s.eng.LocalMatches()
			}
			injected := 0
			for i := range sites {
				for _, p := range foreign[algo] {
					sess.Inject(i, p)
					injected++
				}
			}
			if err := sess.WaitQuiesce(ctx); err != nil {
				t.Fatal(err)
			}
			if d := sess.Stats().Minus(before); d.TotalMsgs() != int64(injected) || d.Rounds != 0 {
				t.Fatalf("%d foreign payloads injected: %d messages and %d rounds followed", injected, d.TotalMsgs(), d.Rounds)
			}
			for i, s := range sites {
				if got := s.eng.LocalMatches(); !slices.Equal(got, matches[i]) {
					t.Fatalf("site %d: local matches %v after foreign payloads, %v before", i, got, matches[i])
				}
			}
		})
	}
}
