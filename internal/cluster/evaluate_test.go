package cluster

import (
	"testing"

	"dgs/internal/wire"
)

// A site is another process on a TCP deployment, so the query-node and
// data-node indices it reports are outside input: one past either range
// must fail the assembly, not index out of bounds.
func TestMatchFromPairsRejectsOutOfRange(t *testing.T) {
	const nq, nv = 2, 10
	for _, tc := range []struct {
		name string
		bad  wire.VarRef
	}{
		{"query-node", wire.VarRef{U: nq, V: 3}},
		{"data-node", wire.VarRef{U: 1, V: nv}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(2)
			defer c.Shutdown()
			report := HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
				pairs := []wire.VarRef{{U: 0, V: uint32(ctx.Self())}}
				if ctx.Self() == 1 {
					pairs = append(pairs, tc.bad)
				}
				ctx.Send(Coordinator, &wire.Matches{Frag: uint16(ctx.Self()), Pairs: pairs})
			})
			coord := &Collector{}
			s := c.NewSession([]Handler{report, report}, coord)
			defer s.Close()
			if err := s.Phase(bg, &wire.Control{}); err != nil {
				t.Fatal(err)
			}
			if len(coord.Pairs) != 3 {
				t.Fatalf("collected %d pairs, want 3", len(coord.Pairs))
			}
			if m, err := MatchFromPairs(nq, nv, coord.Pairs); err == nil {
				t.Fatalf("out-of-range pair %+v assembled into %v", tc.bad, m)
			}
		})
	}
}

func TestMatchFromPairsSortsUnion(t *testing.T) {
	m, err := MatchFromPairs(2, 10, []wire.VarRef{{U: 1, V: 7}, {U: 0, V: 9}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sets[0]) != 1 || m.Sets[0][0] != 9 || len(m.Sets[1]) != 2 || m.Sets[1][0] != 2 || m.Sets[1][1] != 7 {
		t.Fatalf("union = %v", m)
	}
}
