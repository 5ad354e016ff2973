//dgsvet:deterministic

// Package graph provides node-labeled directed graphs, the data-graph
// substrate of the paper "Distributed Graph Simulation: Impossibility and
// Possibility" (VLDB 2014).
//
// A data graph is G = (V, E, L) where V is a finite node set, E ⊆ V×V a set
// of directed edges, and L a labeling function over an alphabet Σ (§2.1).
// Graphs are stored in compressed-sparse-row (CSR) form with an interned
// label dictionary so that multi-million-edge graphs fit comfortably in
// memory and adjacency scans are cache friendly.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node of a data graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1.
type NodeID = uint32

// Label is an interned node label. Labels are indices into a Dict.
type Label = uint16

// NoLabel is the zero label returned for out-of-range lookups.
const NoLabel Label = 0

// Dict interns label strings. Index 0 is reserved for the empty label so
// that the zero Label value is never a user label.
//
// A Dict is safe for concurrent use: Lookup, Name, Len and Names are
// lock-free reads (the serving gateway parses patterns on every request
// thread), while Intern serializes writers behind a mutex and publishes
// the grown table atomically. The id assigned to a name is determined
// solely by intern order, never by map iteration, so deterministic
// loaders stay deterministic.
type Dict struct {
	mu     sync.Mutex // serializes Intern
	byName sync.Map   // string → Label
	names  atomic.Pointer[[]string]
}

// NewDict returns an empty dictionary with the reserved empty label.
func NewDict() *Dict {
	d := &Dict{}
	names := []string{""}
	d.names.Store(&names)
	d.byName.Store("", NoLabel)
	return d
}

// NewDictFromNames builds a dictionary whose table is exactly names:
// names[i] interns to Label(i). Used to reconstruct a driver-owned
// dictionary shipped over the wire; the first entry should be the
// reserved empty label. A duplicate name resolves to its last index,
// matching the historical decode behavior.
func NewDictFromNames(names []string) *Dict {
	if len(names) > 1<<16 {
		panic("graph: label dictionary overflow (>65535 labels)")
	}
	d := &Dict{}
	table := append([]string(nil), names...)
	if len(table) == 0 {
		table = []string{""}
	}
	d.names.Store(&table)
	for i, name := range table {
		d.byName.Store(name, Label(i))
	}
	return d
}

// Intern returns the Label for name, creating it if needed.
func (d *Dict) Intern(name string) Label {
	if l, ok := d.byName.Load(name); ok {
		return l.(Label)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.byName.Load(name); ok {
		return l.(Label)
	}
	cur := *d.names.Load()
	if len(cur) >= 1<<16 {
		panic("graph: label dictionary overflow (>65535 labels)")
	}
	l := Label(len(cur))
	// Copy-on-write append: readers holding the old snapshot never see
	// the new index, so publishing the grown table needs no read lock.
	grown := append(cur[:len(cur):len(cur)], name)
	d.names.Store(&grown)
	d.byName.Store(name, l)
	return l
}

// Lookup returns the Label for name and whether it exists.
func (d *Dict) Lookup(name string) (Label, bool) {
	l, ok := d.byName.Load(name)
	if !ok {
		return NoLabel, false
	}
	return l.(Label), true
}

// Name returns the string for label l, or "" if unknown.
func (d *Dict) Name(l Label) string {
	names := *d.names.Load()
	if int(l) >= len(names) {
		return ""
	}
	return names[l]
}

// Len reports the number of interned labels, including the reserved one.
func (d *Dict) Len() int { return len(*d.names.Load()) }

// Names returns the interned table indexed by Label: a consistent
// snapshot that later Interns will not mutate. Callers must not modify
// it. This is what DEPLOY ships so daemons can render labels.
func (d *Dict) Names() []string { return *d.names.Load() }

// Graph is an immutable node-labeled directed graph in CSR form.
// Build one with a Builder.
type Graph struct {
	labels []Label
	// Forward CSR: out-neighbors of v are succ[succOff[v]:succOff[v+1]].
	succOff []uint64
	succ    []NodeID
	// Reverse CSR, built lazily by EnsureReverse: in-neighbors of v.
	revOnce sync.Once
	predOff []uint64
	pred    []NodeID

	dict *Dict
}

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.succ) }

// Size reports |G| = |V| + |E|, the size measure used throughout the paper.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) Label { return g.labels[v] }

// LabelName returns the string label of node v.
func (g *Graph) LabelName(v NodeID) string { return g.dict.Name(g.labels[v]) }

// Labels returns the raw label slice, indexed by NodeID. Callers must not
// modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Dict returns the label dictionary shared by this graph.
func (g *Graph) Dict() *Dict { return g.dict }

// Succ returns the out-neighbors of v. Callers must not modify it.
func (g *Graph) Succ(v NodeID) []NodeID {
	return g.succ[g.succOff[v]:g.succOff[v+1]]
}

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.succOff[v+1] - g.succOff[v])
}

// HasEdge reports whether edge (v, w) exists. Succ lists are sorted, so
// this is a binary search.
func (g *Graph) HasEdge(v, w NodeID) bool {
	s := g.Succ(v)
	i := sort.Search(len(s), func(i int) bool { return s[i] >= w })
	return i < len(s) && s[i] == w
}

// EnsureReverse materializes the reverse CSR if not yet present. Safe
// for concurrent use: a graph shared by concurrent queries builds its
// reverse adjacency exactly once, and every caller returns with the
// build complete.
func (g *Graph) EnsureReverse() {
	g.revOnce.Do(g.buildReverse)
}

func (g *Graph) buildReverse() {
	n := g.NumNodes()
	deg := make([]uint64, n+1)
	for _, w := range g.succ {
		deg[w+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	pred := make([]NodeID, len(g.succ))
	fill := make([]uint64, n)
	copy(fill, deg[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.Succ(NodeID(v)) {
			pred[fill[w]] = NodeID(v)
			fill[w]++
		}
	}
	g.predOff, g.pred = deg, pred
}

// Pred returns the in-neighbors of v. EnsureReverse must have been called.
func (g *Graph) Pred(v NodeID) []NodeID {
	if g.predOff == nil {
		panic("graph: Pred called before EnsureReverse")
	}
	return g.pred[g.predOff[v]:g.predOff[v+1]]
}

// InDegree reports the in-degree of v. EnsureReverse must have been called.
func (g *Graph) InDegree(v NodeID) int {
	if g.predOff == nil {
		panic("graph: InDegree called before EnsureReverse")
	}
	return int(g.predOff[v+1] - g.predOff[v])
}

// Edges calls fn for every edge (v, w) in ascending (v, w) order and stops
// early if fn returns false.
func (g *Graph) Edges(fn func(v, w NodeID) bool) {
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Succ(NodeID(v)) {
			if !fn(NodeID(v), w) {
				return
			}
		}
	}
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d, labels=%d)", g.NumNodes(), g.NumEdges(), g.dict.Len()-1)
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are coalesced; self-loops are allowed (graph simulation
// is well defined on them and the paper does not exclude them).
type Builder struct {
	dict   *Dict
	labels []Label
	edges  [][2]NodeID
}

// NewBuilder returns a Builder using a fresh label dictionary.
func NewBuilder() *Builder { return NewBuilderDict(NewDict()) }

// NewBuilderDict returns a Builder interning labels into dict, which lets
// a pattern and a data graph share one alphabet.
func NewBuilderDict(dict *Dict) *Builder { return &Builder{dict: dict} }

// AddNode appends a node with the given label string and returns its ID.
func (b *Builder) AddNode(label string) NodeID {
	return b.AddNodeLabel(b.dict.Intern(label))
}

// AddNodeLabel appends a node with an already-interned label.
func (b *Builder) AddNodeLabel(l Label) NodeID {
	id := NodeID(len(b.labels))
	b.labels = append(b.labels, l)
	return id
}

// AddEdge records the directed edge (v, w). Both endpoints must already
// exist when Build is called.
func (b *Builder) AddEdge(v, w NodeID) {
	b.edges = append(b.edges, [2]NodeID{v, w})
}

// NumNodes reports the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// Build validates endpoints, sorts and dedups edges, and returns the CSR
// graph. The Builder may be reused afterwards (its state is copied out).
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	for _, e := range b.edges {
		if int(e[0]) >= n || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references missing node (|V|=%d)", e[0], e[1], n)
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	g := &Graph{dict: b.dict}
	g.labels = append([]Label(nil), b.labels...)
	g.succOff = make([]uint64, n+1)
	g.succ = make([]NodeID, 0, len(b.edges))
	var prev [2]NodeID
	havePrev := false
	for _, e := range b.edges {
		if havePrev && e == prev {
			continue // dedup
		}
		prev, havePrev = e, true
		g.succ = append(g.succ, e[1])
		g.succOff[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		g.succOff[i+1] += g.succOff[i]
	}
	return g, nil
}

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are correct by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
