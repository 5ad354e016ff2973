//dgsvet:deterministic

// Package simulation implements centralized graph simulation [18]
// (Henzinger, Henzinger, Kopke, FOCS'95) as used by the paper:
// given pattern Q and data graph G, compute the unique maximum relation
// R ⊆ Vq×V such that for every (u,v) ∈ R, fv(u) = L(v) and for every query
// edge (u,u') some edge (v,v') of G has (u',v') ∈ R (§2.1).
//
// Two algorithms are provided: an obviously-correct naive fixpoint used as
// the test oracle, and the counter-based refinement with the
// O((|Vq|+|V|)(|Eq|+|E|)) bound cited by the paper [11,18]. The counting
// engine is also the kernel that internal/dgpm reuses per fragment.
package simulation

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dgs/internal/graph"
	"dgs/internal/pattern"
)

// Match is the result of a simulation query: for each query node u, the
// sorted list of data nodes that match u. If any query node has an empty
// list, the graph does not match and the relation is empty by definition
// (§2.1: every query node must have a match).
type Match struct {
	Sets [][]graph.NodeID // indexed by query node
}

// NewMatch allocates an empty match for nq query nodes.
func NewMatch(nq int) *Match { return &Match{Sets: make([][]graph.NodeID, nq)} }

// Ok reports whether G matches Q, i.e. every query node has ≥1 match.
func (m *Match) Ok() bool {
	for _, s := range m.Sets {
		if len(s) == 0 {
			return false
		}
	}
	return len(m.Sets) > 0
}

// Canonical returns m if Ok, else the empty relation with the same arity —
// the paper's convention that Q(G)=∅ when G does not match Q.
func (m *Match) Canonical() *Match {
	if m.Ok() {
		return m
	}
	return NewMatch(len(m.Sets))
}

// NumPairs counts the total number of (u,v) pairs in the relation.
func (m *Match) NumPairs() int {
	n := 0
	for _, s := range m.Sets {
		n += len(s)
	}
	return n
}

// Contains reports whether (u,v) is in the relation.
func (m *Match) Contains(u pattern.QNode, v graph.NodeID) bool {
	s := m.Sets[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// Sort puts every per-node list in ascending order (idempotent).
func (m *Match) Sort() {
	for _, s := range m.Sets {
		slices.Sort(s)
	}
}

// Equal reports whether two relations are identical (after Sort).
func (m *Match) Equal(o *Match) bool {
	if len(m.Sets) != len(o.Sets) {
		return false
	}
	for u := range m.Sets {
		if len(m.Sets[u]) != len(o.Sets[u]) {
			return false
		}
		for i := range m.Sets[u] {
			if m.Sets[u][i] != o.Sets[u][i] {
				return false
			}
		}
	}
	return true
}

// String renders the relation compactly for debugging.
func (m *Match) String() string {
	var sb strings.Builder
	for u, s := range m.Sets {
		fmt.Fprintf(&sb, "u%d:%v ", u, s)
	}
	return strings.TrimSpace(sb.String())
}

// NaiveFixpoint computes the maximum simulation by repeated full scans:
// start from label-consistent candidates and delete any pair violating the
// child condition until stable. O(|Vq||V| · (|Eq||E|)) worst case but
// transparently correct — this is the oracle all other engines are tested
// against.
func NaiveFixpoint(q *pattern.Pattern, g *graph.Graph) *Match {
	nq := q.NumNodes()
	nv := g.NumNodes()
	sim := make([][]bool, nq)
	for u := 0; u < nq; u++ {
		sim[u] = make([]bool, nv)
		for v := 0; v < nv; v++ {
			sim[u][v] = q.Label(pattern.QNode(u)) == g.Label(graph.NodeID(v))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < nq; u++ {
			for v := 0; v < nv; v++ {
				if !sim[u][v] {
					continue
				}
				ok := true
				for _, uc := range q.Succ(pattern.QNode(u)) {
					found := false
					for _, vc := range g.Succ(graph.NodeID(v)) {
						if sim[uc][vc] {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if !ok {
					sim[u][v] = false
					changed = true
				}
			}
		}
	}
	m := NewMatch(nq)
	for u := 0; u < nq; u++ {
		for v := 0; v < nv; v++ {
			if sim[u][v] {
				m.Sets[u] = append(m.Sets[u], graph.NodeID(v))
			}
		}
	}
	return m.Canonical()
}

// HHK computes the maximum simulation with the standard counter-based
// refinement in O((|Vq|+|V|)(|Eq|+|E|)) time: for every candidate pair
// (u,v) and query edge e=(u,u'), maintain cnt[e][v] = |{v' ∈ succ(v) :
// (u',v') alive}|; when a count reaches zero, (u,v) dies and the removal
// propagates to predecessors. Requires g's reverse adjacency.
func HHK(q *pattern.Pattern, g *graph.Graph) *Match {
	g.EnsureReverse()
	st := newState(q, g)
	st.refineAll()
	return st.result().Canonical()
}

// qEdge enumerates query edges with dense indices.
type qEdge struct {
	parent, child pattern.QNode
}

type state struct {
	q *pattern.Pattern
	g *graph.Graph

	qedges []qEdge
	eOut   [][]int // query node -> indices of edges it is parent of
	eIn    [][]int // query node -> indices of edges it is child of
	alive  [][]bool
	cnt    [][]int32 // [edgeIdx][v]
	queue  []pair
}

type pair struct {
	u pattern.QNode
	v graph.NodeID
}

func newState(q *pattern.Pattern, g *graph.Graph) *state {
	st := &state{q: q, g: g}
	nq := q.NumNodes()
	st.eOut = make([][]int, nq)
	st.eIn = make([][]int, nq)
	for u := 0; u < nq; u++ {
		for _, uc := range q.Succ(pattern.QNode(u)) {
			idx := len(st.qedges)
			st.qedges = append(st.qedges, qEdge{pattern.QNode(u), uc})
			st.eOut[u] = append(st.eOut[u], idx)
			st.eIn[uc] = append(st.eIn[uc], idx)
		}
	}
	nv := g.NumNodes()
	st.alive = make([][]bool, nq)
	for u := 0; u < nq; u++ {
		st.alive[u] = make([]bool, nv)
		for v := 0; v < nv; v++ {
			st.alive[u][v] = q.Label(pattern.QNode(u)) == g.Label(graph.NodeID(v))
		}
	}
	st.cnt = make([][]int32, len(st.qedges))
	for e := range st.qedges {
		st.cnt[e] = make([]int32, nv)
	}
	// Initialize counters: cnt[e=(u,u')][v] = #{v' in succ(v): alive[u'][v']}.
	for v := 0; v < nv; v++ {
		for _, vc := range g.Succ(graph.NodeID(v)) {
			for e, qe := range st.qedges {
				if st.alive[qe.child][vc] {
					st.cnt[e][v]++
				}
			}
		}
	}
	// Seed removals: alive pairs whose some out-edge counter is already 0.
	for u := 0; u < nq; u++ {
		for v := 0; v < nv; v++ {
			if !st.alive[u][v] {
				continue
			}
			for _, e := range st.eOut[u] {
				if st.cnt[e][v] == 0 {
					st.kill(pattern.QNode(u), graph.NodeID(v))
					break
				}
			}
		}
	}
	return st
}

func (st *state) kill(u pattern.QNode, v graph.NodeID) {
	if !st.alive[u][v] {
		return
	}
	st.alive[u][v] = false
	st.queue = append(st.queue, pair{u, v})
}

// refineAll drains the removal queue to the fixpoint.
func (st *state) refineAll() {
	for len(st.queue) > 0 {
		p := st.queue[len(st.queue)-1]
		st.queue = st.queue[:len(st.queue)-1]
		// (p.u, p.v) died: every predecessor vp of p.v loses one witness
		// for every query edge e = (up, p.u).
		for _, e := range st.eIn[p.u] {
			up := st.qedges[e].parent
			for _, vp := range st.g.Pred(p.v) {
				st.cnt[e][vp]--
				if st.cnt[e][vp] == 0 && st.alive[up][vp] {
					st.kill(up, vp)
				}
			}
		}
	}
}

func (st *state) result() *Match {
	m := NewMatch(st.q.NumNodes())
	for u := range st.alive {
		for v, a := range st.alive[u] {
			if a {
				m.Sets[u] = append(m.Sets[u], graph.NodeID(v))
			}
		}
	}
	return m
}

// Verify checks that m is a simulation relation contained in the
// label-consistent candidates (soundness witness; used in property tests).
// It does NOT check maximality.
func Verify(q *pattern.Pattern, g *graph.Graph, m *Match) error {
	for u := range m.Sets {
		for _, v := range m.Sets[u] {
			if q.Label(pattern.QNode(u)) != g.Label(v) {
				return fmt.Errorf("pair (u%d,%d) label mismatch", u, v)
			}
			for _, uc := range q.Succ(pattern.QNode(u)) {
				ok := false
				for _, vc := range g.Succ(v) {
					if m.Contains(uc, vc) {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("pair (u%d,%d) lacks witness for query edge to u%d", u, v, uc)
				}
			}
		}
	}
	return nil
}
