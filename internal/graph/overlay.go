package graph

// Overlay is a mutable edge set layered over an immutable CSR Graph: the
// current graph is base ∖ deleted ∪ inserted. It is the centralized twin
// of the per-fragment mutations a live deployment applies — the oracle
// side of incremental maintenance needs "the graph as of now" without
// rebuilding a CSR per update, and Materialize produces a real Graph
// (cached until the next mutation) when a fresh fixpoint or a fresh
// fragmentation is wanted.
//
// Node set and labels are fixed; only edges change. An Overlay is not
// safe for concurrent mutation; the deployment layer serializes access.

import (
	"fmt"
	"sort"
)

// EdgeOp is one update operation of an update stream: the deletion
// (Del=true) or insertion of the directed edge (V, W).
type EdgeOp struct {
	Del  bool
	V, W NodeID
}

func (op EdgeOp) String() string {
	if op.Del {
		return fmt.Sprintf("-(%d,%d)", op.V, op.W)
	}
	return fmt.Sprintf("+(%d,%d)", op.V, op.W)
}

func packEdge(v, w NodeID) uint64 { return uint64(v)<<32 | uint64(w) }

// Overlay tracks edge deletions and insertions against a base graph.
type Overlay struct {
	base     *Graph
	deleted  map[uint64]bool
	inserted map[uint64]bool
	// insSucc mirrors inserted as per-source target sets for Succ merges.
	insSucc map[NodeID][]NodeID

	cached *Graph // materialized current graph; nil after a mutation
}

// NewOverlay wraps g with an initially-empty overlay.
func NewOverlay(g *Graph) *Overlay {
	return &Overlay{
		base:     g,
		deleted:  make(map[uint64]bool),
		inserted: make(map[uint64]bool),
		insSucc:  make(map[NodeID][]NodeID),
	}
}

// NumNodes reports |V| (fixed).
func (o *Overlay) NumNodes() int { return o.base.NumNodes() }

// NumEdges reports |E| of the current graph.
func (o *Overlay) NumEdges() int {
	return o.base.NumEdges() - len(o.deleted) + len(o.inserted)
}

// Label returns the (fixed) label of v.
func (o *Overlay) Label(v NodeID) Label { return o.base.Label(v) }

// HasEdge reports whether (v, w) exists in the current graph.
func (o *Overlay) HasEdge(v, w NodeID) bool {
	k := packEdge(v, w)
	if o.deleted[k] {
		return false
	}
	return o.inserted[k] || o.base.HasEdge(v, w)
}

// Dirty reports whether the overlay diverges from the base graph.
func (o *Overlay) Dirty() bool { return len(o.deleted)+len(o.inserted) > 0 }

// DeleteEdge removes (v, w) from the current graph; the edge must exist.
func (o *Overlay) DeleteEdge(v, w NodeID) error {
	if int(v) >= o.NumNodes() || int(w) >= o.NumNodes() {
		return fmt.Errorf("graph: delete (%d,%d): node out of range (|V|=%d)", v, w, o.NumNodes())
	}
	if !o.HasEdge(v, w) {
		return fmt.Errorf("graph: delete (%d,%d): edge does not exist", v, w)
	}
	k := packEdge(v, w)
	if o.inserted[k] {
		delete(o.inserted, k)
		o.insSucc[v] = removeNode(o.insSucc[v], w)
		if len(o.insSucc[v]) == 0 {
			delete(o.insSucc, v)
		}
	} else {
		o.deleted[k] = true
	}
	o.cached = nil
	return nil
}

// InsertEdge adds (v, w) to the current graph; the edge must not exist
// and both endpoints must be existing nodes (the node set is fixed).
func (o *Overlay) InsertEdge(v, w NodeID) error {
	if int(v) >= o.NumNodes() || int(w) >= o.NumNodes() {
		return fmt.Errorf("graph: insert (%d,%d): node out of range (|V|=%d)", v, w, o.NumNodes())
	}
	if o.HasEdge(v, w) {
		return fmt.Errorf("graph: insert (%d,%d): edge already exists", v, w)
	}
	k := packEdge(v, w)
	if o.deleted[k] {
		delete(o.deleted, k)
	} else {
		o.inserted[k] = true
		o.insSucc[v] = append(o.insSucc[v], w)
	}
	o.cached = nil
	return nil
}

// Succ returns the current out-neighbors of v, sorted. It allocates when
// v has overlay changes; otherwise it returns the base CSR slice.
func (o *Overlay) Succ(v NodeID) []NodeID {
	base := o.base.Succ(v)
	ins := o.insSucc[v]
	touched := len(ins) > 0
	if !touched {
		for _, w := range base {
			if o.deleted[packEdge(v, w)] {
				touched = true
				break
			}
		}
	}
	if !touched {
		return base
	}
	out := make([]NodeID, 0, len(base)+len(ins))
	for _, w := range base {
		if !o.deleted[packEdge(v, w)] {
			out = append(out, w)
		}
	}
	out = append(out, ins...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges calls fn for every current edge (ascending (v, w) order) and
// stops early if fn returns false.
func (o *Overlay) Edges(fn func(v, w NodeID) bool) {
	for v := 0; v < o.NumNodes(); v++ {
		for _, w := range o.Succ(NodeID(v)) {
			if !fn(NodeID(v), w) {
				return
			}
		}
	}
}

// Materialize returns the current graph as an immutable CSR Graph,
// sharing the base's label dictionary. The result is cached until the
// next mutation; an undirtied overlay returns the base itself.
func (o *Overlay) Materialize() *Graph {
	if !o.Dirty() {
		return o.base
	}
	if o.cached != nil {
		return o.cached
	}
	b := NewBuilderDict(o.base.Dict())
	for v := 0; v < o.NumNodes(); v++ {
		b.AddNodeLabel(o.base.Label(NodeID(v)))
	}
	o.Edges(func(v, w NodeID) bool {
		b.AddEdge(v, w)
		return true
	})
	o.cached = b.MustBuild()
	return o.cached
}

// NormalizeOps validates ops sequentially against the overlay's current
// state and returns the batch's net effect: deletions of edges that
// exist now and insertions of edges that don't, with delete-then-insert
// (and insert-then-delete) pairs on the same edge cancelled. The overlay
// itself is not modified.
func NormalizeOps(o *Overlay, ops []EdgeOp) (dels, ins [][2]NodeID, err error) {
	pendDel := make(map[uint64]bool)
	pendIns := make(map[uint64]bool)
	n := o.NumNodes()
	for _, op := range ops {
		if int(op.V) >= n || int(op.W) >= n {
			return nil, nil, fmt.Errorf("graph: op %s: node out of range (|V|=%d)", op, n)
		}
		k := packEdge(op.V, op.W)
		exists := (o.HasEdge(op.V, op.W) || pendIns[k]) && !pendDel[k]
		if op.Del {
			if !exists {
				return nil, nil, fmt.Errorf("graph: op %s: edge does not exist", op)
			}
			if pendIns[k] {
				delete(pendIns, k)
			} else {
				pendDel[k] = true
			}
		} else {
			if exists {
				return nil, nil, fmt.Errorf("graph: op %s: edge already exists", op)
			}
			if pendDel[k] {
				delete(pendDel, k)
			} else {
				pendIns[k] = true
			}
		}
	}
	for k := range pendDel {
		dels = append(dels, [2]NodeID{NodeID(k >> 32), NodeID(k & 0xffffffff)})
	}
	for k := range pendIns {
		ins = append(ins, [2]NodeID{NodeID(k >> 32), NodeID(k & 0xffffffff)})
	}
	sortEdgeList(dels)
	sortEdgeList(ins)
	return dels, ins, nil
}

func sortEdgeList(es [][2]NodeID) {
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
}

// removeNode deletes one occurrence of w from s (order not preserved).
func removeNode(s []NodeID, w NodeID) []NodeID {
	for i, x := range s {
		if x == w {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
