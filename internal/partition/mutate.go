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
// Node sets and labels are fixed; only edges change. An edge edit is
// logged against the fragment's index, which holds its adjacency, and
// the next Index call folds the log in (see patch); an edit reads the
// index plus the log, so it sees the edits before it. The caller (the
// deployment's update session) is responsible for serializing mutations
// against in-flight queries.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dgs/internal/graph"
)

// edgeEdit is one logged edge edit: (v, w) was inserted (add; w is
// labelled l) or deleted.
type edgeEdit struct {
	v, w graph.NodeID
	l    graph.Label
	add  bool
}

// logFull reports whether the edit log is due to be folded into the
// index. The n edits of a log scan about n² entries between them, and a
// fold may lay the index out again at a cost that grows with the
// fragment's m edges; folding at n = 16√m keeps both at O(√m) per edit.
// A driver that replays updates and never reads its index folds only
// here. Replaying single-edge deletions on the eight fragments of a web
// graph, such a driver spent least per edit with fixed bounds between
// 2,048 and 8,192 edits, where 16√m is 3,200 (40k edges a fragment) and
// 6,900 (187k). The caller holds idxMu.
func (f *Fragment) logFull() bool {
	n := len(f.edits)
	return n*n >= 256*f.numEdges
}

// hasEdge reports whether the fragment has the edge (v, w), v local: the
// last logged edit of it says, else the index. The caller holds idxMu.
func (f *Fragment) hasEdge(v, w graph.NodeID) bool {
	for i := len(f.edits) - 1; i >= 0; i-- {
		if e := f.edits[i]; e.v == v && e.w == w {
			return e.add
		}
	}
	ix := f.idx
	li, _ := ix.Find(v)
	_, found := slices.BinarySearchFunc(ix.Succ[li], w, func(wi int32, w graph.NodeID) int { return cmp.Compare(ix.Vis[wi], w) })
	return found
}

// crossCount counts the fragment's crossing edges into w, a node it does
// not own: the index's Pred row of w, plus the logged edits. The caller
// holds idxMu.
func (f *Fragment) crossCount(w graph.NodeID) int {
	n := 0
	if wi, ok := f.idx.Find(w); ok {
		n = len(f.idx.Pred[wi])
	}
	for _, e := range f.edits {
		if e.w == w {
			if e.add {
				n++
			} else {
				n--
			}
		}
	}
	return n
}

// DeleteEdge removes the edge (v, w) from the fragment; v must be local
// and the edge present. It reports whether w thereby stopped being one
// of the fragment's virtual nodes, in which case the caller must send a
// RemoveWatcher notification to w's owner.
func (f *Fragment) DeleteEdge(v, w graph.NodeID) (droppedVirtual bool, err error) {
	return f.edit(edgeEdit{v: v, w: w})
}

// InsertEdge adds the edge (v, w); v must be local and the edge absent.
// For a crossing edge the caller supplies w's label. It reports whether w
// thereby became a new virtual node, in which case the caller must send
// an AddWatcher notification to w's owner, which the owner directory
// names.
func (f *Fragment) InsertEdge(v, w graph.NodeID, wLabel graph.Label) (addedVirtual bool, err error) {
	return f.edit(edgeEdit{v: v, w: w, l: wLabel, add: true})
}

// edit logs e unless the fragment refuses it, and reports whether e.w
// thereby entered or left Virtual. A full log is folded into the index.
func (f *Fragment) edit(e edgeEdit) (virtualChanged bool, err error) {
	op, d := "delete", -1
	if e.add {
		op, d = "insert", 1
	}
	if !f.IsLocal(e.v) {
		return false, fmt.Errorf("partition: fragment %d asked to %s (%d,%d) but %d is not local", f.ID, op, e.v, e.w, e.v)
	}
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	switch has := f.hasEdge(e.v, e.w); {
	case has && e.add:
		return false, fmt.Errorf("partition: fragment %d already has edge (%d,%d)", f.ID, e.v, e.w)
	case !has && !e.add:
		return false, fmt.Errorf("partition: fragment %d has no edge (%d,%d)", f.ID, e.v, e.w)
	}
	f.edits = append(f.edits, e)
	f.numEdges += d
	if !f.IsLocal(e.w) {
		f.numCrossing += d
		// w is virtual from its first crossing edge to its last.
		if n := f.crossCount(e.w); e.add && n == 1 || !e.add && n == 0 {
			f.Virtual, virtualChanged = editSorted(f.Virtual, e.w, e.add), true
		}
	}
	if f.logFull() {
		f.fold()
	}
	return virtualChanged, nil
}

// touchWatchers logs that the in-node watchers changed.
func (f *Fragment) touchWatchers() {
	f.idxMu.Lock()
	defer f.idxMu.Unlock()
	f.idxWatch = true
}

// AddWatcher records that fragment id now holds local node v as virtual.
// It reports whether v thereby became an in-node; a node that is not
// local is ignored. Watcher lists are kept sorted, so membership and
// insertion are binary searches — this sits on the Apply hot path
// alongside editSorted.
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
		f.InNodes = editSorted(f.InNodes, v, true)
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
	f.InNodes = editSorted(f.InNodes, v, false)
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

// editSorted inserts x into the ascending s (add), or deletes it.
func editSorted[T cmp.Ordered](s []T, x T, add bool) []T {
	i, found := slices.BinarySearch(s, x)
	switch {
	case add && !found:
		return slices.Insert(s, i, x)
	case !add && found:
		return slices.Delete(s, i, i+1)
	}
	return s
}
