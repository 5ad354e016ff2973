package main

// The correctness check. Every answer is compared with the centralized
// simulation — simulation.HHK, the function dgs.Simulate wraps — on the
// graph at the version the answer reports. The oracle works on the
// benchmark's own copy of the graph and replays the update batches the
// run applied on a graph.Overlay, so it shares no state with the system
// it checks.

import (
	"fmt"
	"sort"

	"dgs"
	"dgs/internal/graph"
	"dgs/internal/simulation"
)

// answer is a query result reduced to what two relations are compared
// by: the Boolean answer, |Q(G)|, and — where the full relation is at
// hand (library results, the oracle) — a hash over its pairs. The
// gateway reports only ok and pairs, so HTTP answers compare on those.
type answer struct {
	OK     bool
	Pairs  int
	Hash   uint64
	Hashed bool
}

// hashPair folds one (query node, data node) pair into an FNV-1a style
// running hash.
func hashPair(h uint64, u int, v graph.NodeID) uint64 {
	h ^= uint64(u)<<32 | uint64(v)
	return h * 1099511628211
}

const hashSeed = 14695981039346656037

// answerOf reduces a library result; nq is the pattern's node count.
func answerOf(m *dgs.Match, nq int) answer {
	a := answer{OK: m.Ok(), Pairs: m.NumPairs(), Hash: hashSeed, Hashed: true}
	for u := 0; u < nq; u++ {
		for _, v := range m.MatchesOf(dgs.QNode(u)) {
			a.Hash = hashPair(a.Hash, u, v)
		}
	}
	return a
}

func oracleAnswer(m *simulation.Match) answer {
	a := answer{OK: m.Ok(), Pairs: m.NumPairs(), Hash: hashSeed, Hashed: true}
	for u, set := range m.Sets {
		for _, v := range set {
			a.Hash = hashPair(a.Hash, u, v)
		}
	}
	return a
}

// agrees compares a reported answer with the oracle's.
func (a answer) agrees(want answer) bool {
	if a.OK != want.OK || a.Pairs != want.Pairs {
		return false
	}
	return !a.Hashed || a.Hash == want.Hash
}

// verdict is the outcome of checking a phase's answers.
type verdict struct {
	Checked int // answers compared
	Wrong   int
	Keys    int    // distinct (pattern, version) pairs simulated
	First   string // the first disagreement, for the log
}

// check compares every successful query of rs — and, at the end, every
// standing query's current relation — with the oracle.
func check(in *inputs, rs []result, watches []*dgs.Maintained, finalVersion uint64) (verdict, error) {
	var v verdict
	batchOf := make(map[uint64][]dgs.EdgeOp)
	type key struct {
		pat     int
		version uint64
	}
	wanted := make(map[uint64][]int) // version → patterns asked at it
	seen := make(map[key]bool)
	need := func(pat int, version uint64) {
		if k := (key{pat, version}); !seen[k] {
			seen[k] = true
			wanted[version] = append(wanted[version], pat)
		}
	}
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		if r.Kind == opQuery {
			need(r.Pat, r.Version)
		} else {
			batchOf[r.Version] = in.ops[r.Op].Batch
		}
	}
	for i := range watches {
		need(i, finalVersion)
	}
	versions := make([]uint64, 0, len(wanted))
	for ver := range wanted {
		versions = append(versions, ver)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })

	// Walk the versions in order, replaying batches up to each one asked
	// about and simulating there.
	want := make(map[key]answer)
	ov := graph.NewOverlay(in.twin)
	at := uint64(0)
	for _, ver := range versions {
		for at < ver {
			at++
			batch, ok := batchOf[at]
			if !ok {
				return v, fmt.Errorf("oracle: an answer reports version %d but no applied batch produced version %d", ver, at)
			}
			for _, e := range batch {
				var err error
				if e.Del {
					err = ov.DeleteEdge(e.V, e.W)
				} else {
					err = ov.InsertEdge(e.V, e.W)
				}
				if err != nil {
					return v, fmt.Errorf("oracle: replay of version %d: %w", at, err)
				}
			}
		}
		g := in.twin
		if ov.Dirty() {
			g = ov.Materialize()
		}
		for _, pat := range wanted[ver] {
			want[key{pat, ver}] = oracleAnswer(simulation.HHK(in.twinCat[pat], g))
			v.Keys++
		}
	}

	disagree := func(what string, got, w answer) {
		v.Wrong++
		if v.First == "" {
			v.First = fmt.Sprintf("%s: got ok=%v pairs=%d, oracle ok=%v pairs=%d", what, got.OK, got.Pairs, w.OK, w.Pairs)
		}
	}
	for _, r := range rs {
		if r.Err != nil || r.Kind != opQuery {
			continue
		}
		v.Checked++
		if w := want[key{r.Pat, r.Version}]; !r.Answer.agrees(w) {
			disagree(fmt.Sprintf("op %d (pattern %d at version %d)", r.Op, r.Pat, r.Version), r.Answer, w)
		}
	}
	for i, wt := range watches {
		v.Checked++
		got := answerOf(wt.Current(), wt.Pattern().NumNodes())
		if w := want[key{i, finalVersion}]; !got.agrees(w) {
			disagree(fmt.Sprintf("standing query %d at version %d", i, finalVersion), got, w)
		}
	}
	return v, nil
}
