package partition

// In-place fragment mutation under live edge updates. A deployment
// routes each update to the fragment owning the edge's source node; the
// owning site calls DeleteEdge/InsertEdge on its resident Fragment, and
// — when the update changes which nodes it holds as virtual — notifies
// the target node's owner, which calls AddWatcher/RemoveWatcher. This is
// the distributed maintenance of the §2.2 boundary structure (Virtual,
// InNodes, InWatchers): every invariant Validate checks is preserved
// batch by batch.
//
// Node sets and labels are fixed; only edges change. The caller (the
// deployment's update session) is responsible for serializing mutations
// against in-flight queries.

import (
	"fmt"
	"sort"

	"dgs/internal/graph"
)

// DeleteEdge removes the edge (v, w) from the fragment; v must be local
// and the edge present. It reports whether w thereby stopped being one
// of the fragment's virtual nodes, in which case the caller must send a
// RemoveWatcher notification to w's owner.
func (f *Fragment) DeleteEdge(v, w graph.NodeID) (droppedVirtual bool, err error) {
	if !f.IsLocal(v) {
		return false, fmt.Errorf("partition: fragment %d asked to delete (%d,%d) but %d is not local", f.ID, v, w, v)
	}
	row := f.Succ[v]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= w })
	if i >= len(row) || row[i] != w {
		return false, fmt.Errorf("partition: fragment %d has no edge (%d,%d)", f.ID, v, w)
	}
	// Copy-on-write: rows may still alias the Build-time CSR arrays.
	nrow := make([]graph.NodeID, 0, len(row)-1)
	nrow = append(nrow, row[:i]...)
	nrow = append(nrow, row[i+1:]...)
	if len(nrow) == 0 {
		delete(f.Succ, v)
	} else {
		f.Succ[v] = nrow
	}
	f.numEdges--
	if !f.IsLocal(w) {
		f.numCrossing--
		f.crossCnt[w]--
		if f.crossCnt[w] == 0 {
			delete(f.crossCnt, w)
			delete(f.Labels, w)
			f.Virtual = removeSorted(f.Virtual, w)
			droppedVirtual = true
		}
	}
	f.touchRow(v, droppedVirtual)
	return droppedVirtual, nil
}

// InsertEdge adds the edge (v, w); v must be local and the edge absent.
// For a crossing edge the caller supplies w's label. It reports whether w
// thereby became a new virtual node, in which case the caller must send
// an AddWatcher notification to w's owner, which the owner directory
// names.
func (f *Fragment) InsertEdge(v, w graph.NodeID, wLabel graph.Label) (addedVirtual bool, err error) {
	if !f.IsLocal(v) {
		return false, fmt.Errorf("partition: fragment %d asked to insert (%d,%d) but %d is not local", f.ID, v, w, v)
	}
	row := f.Succ[v]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= w })
	if i < len(row) && row[i] == w {
		return false, fmt.Errorf("partition: fragment %d already has edge (%d,%d)", f.ID, v, w)
	}
	nrow := make([]graph.NodeID, 0, len(row)+1)
	nrow = append(nrow, row[:i]...)
	nrow = append(nrow, w)
	nrow = append(nrow, row[i:]...)
	f.Succ[v] = nrow
	f.numEdges++
	if !f.IsLocal(w) {
		f.numCrossing++
		f.crossCnt[w]++
		if f.crossCnt[w] == 1 {
			f.Labels[w] = wLabel
			f.Virtual = insertSorted(f.Virtual, w)
			addedVirtual = true
		}
	}
	f.touchRow(v, addedVirtual)
	return addedVirtual, nil
}

// AddWatcher records that fragment id now holds local node v as virtual.
// It reports whether v thereby became an in-node; a node that is not
// local is ignored. Watcher lists are kept sorted, so membership and
// insertion are binary searches — this sits on the Apply hot path
// alongside insertSorted/removeSorted.
func (f *Fragment) AddWatcher(v graph.NodeID, id int) (becameIn bool) {
	if !f.IsLocal(v) {
		return false
	}
	ws := f.InWatchers[v]
	i := sort.SearchInts(ws, id)
	if i < len(ws) && ws[i] == id {
		return false
	}
	f.touchWatchers()
	ws = append(ws, 0)
	copy(ws[i+1:], ws[i:])
	ws[i] = id
	f.InWatchers[v] = ws
	if len(ws) == 1 {
		f.InNodes = insertSorted(f.InNodes, v)
		return true
	}
	return false
}

// RemoveWatcher records that fragment id no longer holds v as virtual.
// It reports whether v thereby stopped being an in-node; a node that is
// not local is ignored.
func (f *Fragment) RemoveWatcher(v graph.NodeID, id int) (droppedIn bool) {
	if !f.IsLocal(v) {
		return false
	}
	ws := f.InWatchers[v]
	if i := sort.SearchInts(ws, id); i < len(ws) && ws[i] == id {
		f.touchWatchers()
		ws = append(ws[:i], ws[i+1:]...)
	}
	if len(ws) > 0 {
		f.InWatchers[v] = ws
		return false
	}
	if _, tracked := f.InWatchers[v]; !tracked {
		return false
	}
	delete(f.InWatchers, v)
	f.InNodes = removeSorted(f.InNodes, v)
	return true
}

// Overlay returns the fragmentation's live-update overlay over G,
// creating it on first use. The deployment validates and records every
// applied batch here; fragments carry the same edits site-locally.
func (fr *Fragmentation) Overlay() *graph.Overlay {
	if fr.ov == nil {
		fr.ov = graph.NewOverlay(fr.G)
	}
	return fr.ov
}

// CurrentGraph returns the graph as of all applied updates — G itself
// when no update has been applied, else the materialized (and cached)
// overlay.
func (fr *Fragmentation) CurrentGraph() *graph.Graph {
	if fr.ov == nil {
		return fr.G
	}
	return fr.ov.Materialize()
}

// CurrentNumEdges reports |E| of the current graph without
// materializing.
func (fr *Fragmentation) CurrentNumEdges() int {
	if fr.ov == nil {
		return fr.G.NumEdges()
	}
	return fr.ov.NumEdges()
}

// RecountBoundary refreshes the |Vf| and |Ef| statistics from the
// (mutated) fragments: in-node sets are disjoint across fragments, so
// |Vf| is their summed size, and |Ef| sums the per-fragment crossing
// counts. Called by the deployment after an update batch quiesces.
func (fr *Fragmentation) RecountBoundary() {
	vf, ef := 0, 0
	for _, f := range fr.Frags {
		vf += len(f.InNodes)
		ef += f.numCrossing
	}
	fr.vf, fr.ef = vf, ef
}

func insertSorted(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i >= len(s) || s[i] != v {
		return s
	}
	return append(s[:i], s[i+1:]...)
}
