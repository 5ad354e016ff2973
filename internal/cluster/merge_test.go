package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dgs/internal/graph"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// sortedUnion is MatchFromPairs as append then sort: the reference its
// run merge must equal.
func sortedUnion(nq int, pairs []wire.VarRef) *simulation.Match {
	m := simulation.NewMatch(nq)
	for _, r := range pairs {
		m.Sets[r.U] = append(m.Sets[r.U], graph.NodeID(r.V))
	}
	for _, s := range m.Sets {
		slices.Sort(s)
	}
	return m
}

// checkUnion holds MatchFromPairs on pairs against sortedUnion.
func checkUnion(t *testing.T, what string, nq, nv int, pairs []wire.VarRef) {
	t.Helper()
	got, err := MatchFromPairs(nq, nv, pairs)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := sortedUnion(nq, pairs); !got.Equal(want) {
		t.Fatalf("%s: MatchFromPairs = %v, append and sort = %v", what, got, want)
	}
}

// Reports from 1–64 sites, collected in arrival order. Each site's report
// is one of: ascending per query node over the site's own block of IDs,
// as dGPM and dMes report; ascending over IDs interleaved with the other
// sites'; descending; or ascending with duplicates, also of other sites'
// IDs. The union must be what append-then-sort gives.
func TestMatchFromPairsMergesReports(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := range 400 {
		nq, sites := 1+r.Intn(6), 1+r.Intn(64)
		nv := sites * (1 + r.Intn(40))
		var pairs []wire.VarRef
		for s := range sites {
			kind := r.Intn(4)
			for u := range nq {
				var ids []uint32
				for v := range nv {
					owned := v%sites == s
					if kind == 0 {
						owned = v*sites/nv == s
					}
					if (owned || kind == 3) && r.Intn(3) == 0 {
						ids = append(ids, uint32(v))
						if kind == 3 && r.Intn(4) == 0 {
							ids = append(ids, uint32(v))
						}
					}
				}
				if kind == 2 {
					slices.Reverse(ids)
				}
				for _, v := range ids {
					pairs = append(pairs, wire.VarRef{U: uint16(u), V: v})
				}
			}
		}
		checkUnion(t, fmt.Sprintf("trial %d (%d sites)", trial, sites), nq, nv, pairs)
	}
	checkUnion(t, "empty", 3, 10, nil)
	checkUnion(t, "one pair", 1, 10, []wire.VarRef{{U: 0, V: 4}})
	checkUnion(t, "all equal", 1, 10, []wire.VarRef{{V: 4}, {V: 4}, {V: 4}})
}

// FuzzMatchFromPairs holds MatchFromPairs against append-then-sort on
// any pair list: 5 bytes a pair, a query node below 4 and a data node
// below 256, so runs, duplicates and every order are reachable.
func FuzzMatchFromPairs(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{1, 9, 0, 0, 0, 1, 2, 0, 0, 0, 1, 2, 0, 0, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		const nq, nv = 4, 256
		var pairs []wire.VarRef
		for ; len(b) >= 5; b = b[5:] {
			pairs = append(pairs, wire.VarRef{U: uint16(b[0] % nq), V: binary.LittleEndian.Uint32(b[1:]) % nv})
		}
		checkUnion(t, "fuzz", nq, nv, pairs)
	})
}
