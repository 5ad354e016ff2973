package dgs

// Mutable deployments: live edge updates with distributed incremental
// maintenance. Apply routes a batch of edge deletions/insertions to the
// owning sites, which mutate their resident fragments in place; one-shot
// Query calls always see the current graph. Watch registers a standing
// query whose match relation is refined incrementally on each deletion
// batch (the O(|AFF|) deletion case of [13], run distributed over the
// falsification messaging), with insertions falling back to a
// re-evaluation of the standing query. See DESIGN.md §"The update
// lifecycle" for the semantics and the interaction with in-flight
// queries.

import (
	"context"
	"errors"
	"sync"

	"dgs/internal/cluster"
	"dgs/internal/dgpm"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
)

// EdgeOp is one update of an update batch: the deletion or insertion of
// a directed edge between existing nodes (the node set and labels of a
// deployed graph are fixed).
type EdgeOp = graph.EdgeOp

// DeleteOp returns the op deleting edge (v, w).
func DeleteOp(v, w NodeID) EdgeOp { return EdgeOp{Del: true, V: v, W: w} }

// InsertOp returns the op inserting edge (v, w).
func InsertOp(v, w NodeID) EdgeOp { return EdgeOp{V: v, W: w} }

// ApplyStats reports the cost of one Apply call.
type ApplyStats struct {
	// Deletions and Insertions count the batch's net edge ops (ops that
	// cancel within the batch are not distributed).
	Deletions, Insertions int
	// Delta is the fragment-update distribution traffic: the routed edge
	// ops plus the watch/unwatch notifications that maintain the
	// boundary structure.
	Delta Stats
	// Maintenance aggregates the standing queries' refinement traffic —
	// incremental falsification propagation for a deletion-only batch,
	// full re-evaluation when the batch inserts edges. The standing
	// queries share one maintenance session, whose cost is paid once
	// here, not once per handle.
	Maintenance Stats
	// Reevaluated counts standing queries that fell back to full
	// re-evaluation (insertions in the batch, or a previously failed
	// refinement).
	Reevaluated int
}

func addStats(a *Stats, b Stats) {
	a.Wall += b.Wall
	a.DataBytes += b.DataBytes
	a.DataMsgs += b.DataMsgs
	a.PushBytes += b.PushBytes
	a.PushMsgs += b.PushMsgs
	a.ControlBytes += b.ControlBytes
	a.ResultBytes += b.ResultBytes
	a.Rounds += b.Rounds
	a.WireBytes += b.WireBytes
	if b.MaxSiteBusy > a.MaxSiteBusy {
		a.MaxSiteBusy = b.MaxSiteBusy
	}
}

// Apply mutates the deployed graph with a batch of edge updates. The
// batch is validated first (deleting an absent edge or inserting a
// present one fails the whole batch, before anything is distributed),
// then routed to the sites owning each edge's source node, which update
// their resident fragments in place. Standing queries registered with
// Watch are refreshed before Apply returns: a deletion-only batch is
// absorbed incrementally, a batch with insertions re-evaluates them.
// Apply serializes against Query/Watch: in-flight queries finish against
// the pre-batch graph, queries issued after Apply returns see the
// post-batch graph.
//
// ctx gates only the standing-query refresh (fragment updates always
// run to completion, keeping the graph state consistent): on
// cancellation the unrefreshed queries stay registered, serve their last
// relation, and are re-evaluated on the next Apply or Refresh.
func (d *Deployment) Apply(ctx context.Context, ops []EdgeOp) (ApplyStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return ApplyStats{}, errorf("apply: %w", ErrClosed)
	}
	d.state.Lock()
	defer d.state.Unlock()

	ov := d.part.fr.Overlay()
	dels, ins, err := graph.NormalizeOps(ov, ops)
	if err != nil {
		return ApplyStats{}, errorf("apply: %w", err)
	}
	st := ApplyStats{Deletions: len(dels), Insertions: len(ins)}
	if len(dels) == 0 && len(ins) == 0 {
		return st, nil
	}

	// Distribute to the owning sites and commit the overlay.
	deltaStats, err := dgpm.ApplyUpdates(d.c, d.part.fr, dels, ins)
	if err != nil {
		// The batch died mid-distribution: some sites may have mutated
		// their fragments, others not, and the driver's state is still
		// pre-batch. Mark the deployment so the next recovery re-ships
		// EVERY fragment (not just the lost ones), restoring all sites
		// to the driver's consistent pre-batch graph. The cause decides
		// retryability: a lost site wraps ErrSiteLost, a shutdown wraps
		// ErrClosed.
		d.applyInterrupted = true
		return st, errorf("apply: %w while distributing updates", publicErr(err))
	}
	st.Delta = fromCluster(deltaStats)
	if d.remote {
		// The maintenance session mutated the daemons' resident copies;
		// replay the batch on the driver's fragmentation so boundary
		// metadata (and any future re-split) stays in lockstep.
		if err := partition.ApplyBatchLocal(d.part.fr, dels, ins); err != nil {
			panic("dgs: local replay diverged from validation: " + err.Error())
		}
	} else {
		// In-process sites mutate the driver's own fragments; only the
		// derived boundary statistics need refreshing.
		d.part.fr.RecountBoundary()
	}
	for _, e := range dels {
		if err := ov.DeleteEdge(e[0], e[1]); err != nil {
			panic("dgs: overlay diverged from validation: " + err.Error())
		}
	}
	for _, e := range ins {
		if err := ov.InsertEdge(e[0], e[1]); err != nil {
			panic("dgs: overlay diverged from validation: " + err.Error())
		}
	}
	// The graph changed: bump the version under the exclusive lock so
	// caches keyed on Version see a strictly newer graph from here on.
	d.version.Add(1)
	d.om.applies.Inc()

	// Refresh the standing queries. A refresh failure (ctx cancellation)
	// must not leave any other handle silently desynced: the graph is
	// already committed, so every watcher not successfully refreshed
	// against THIS batch is marked stale and re-evaluated by the next
	// Apply or Refresh.
	//
	// A site lost mid-refresh is the one failure that must NOT fail the
	// Apply: the batch is committed on the driver, so an error here would
	// tell a retrying caller the batch never landed and make it
	// re-submit ops the overlay has already absorbed. The watcher is
	// stale either way, and the recovery that clears the loss
	// re-registers every standing query against the committed graph
	// (failover.go); any other error still surfaces.
	var firstErr error
	for _, w := range d.openWatchers() {
		if firstErr != nil {
			w.markStale()
			continue
		}
		reeval, wst, err := w.refresh(ctx, dels, len(ins) > 0)
		if err != nil {
			firstErr = err // refresh marked w stale itself
			continue
		}
		if reeval {
			st.Reevaluated++
		}
		addStats(&st.Maintenance, wst)
	}
	if firstErr != nil && !errors.Is(firstErr, cluster.ErrSiteLost) {
		return st, errorf("apply: standing query refresh: %w", publicErr(firstErr))
	}
	return st, nil
}

// openWatchers snapshots the registered standing-query handles.
func (d *Deployment) openWatchers() []*Maintained {
	d.watchMu.Lock()
	defer d.watchMu.Unlock()
	watchers := make([]*Maintained, 0, len(d.watchers))
	for w := range d.watchers {
		watchers = append(watchers, w)
	}
	return watchers
}

// Watch registers q as a standing query: it is evaluated now (with the
// maintenance engine — dGPM with incremental evaluation, push disabled)
// and its match relation is kept current by every subsequent Apply. The
// returned handle serves the relation without further distributed work;
// Close it when the standing query is no longer needed.
//
// A deployment's standing queries share ONE maintenance session: each
// distinct pattern (modulo node renaming — canonical-form equality) is
// one block of a disjoint pattern union, and a Watch whose pattern is
// equivalent to a live one joins its block without any distributed work
// at all. A pattern whose label is absent from the graph never opens a
// session: its handle serves ∅ statically, since the node set and
// labels of a deployed graph are fixed.
func (d *Deployment) Watch(ctx context.Context, q *Pattern) (*Maintained, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q == nil {
		return nil, errorf("watch: nil pattern")
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, errorf("watch: %w", ErrClosed)
	}
	// Holding the read lock across evaluation AND registration makes the
	// handle atomic with respect to Apply: a standing query is either
	// registered before a batch (and refreshed by it) or evaluated
	// against the post-batch graph.
	d.state.RLock()
	defer d.state.RUnlock()

	var w *Maintained
	if d.planFor(q.p).Empty {
		// Absent label: Q(G) = ∅ now and after every future batch (edge
		// updates cannot mint label occurrences), so the handle is
		// static — no session, no refresh work, never stale.
		w = &Maintained{d: d, q: q, cur: &Match{m: emptyRelation(q.p.NumNodes())}}
	} else {
		var err error
		if w, err = d.watchShared(ctx, q); err != nil {
			return nil, errorf("watch: %w", err)
		}
	}
	d.watchMu.Lock()
	d.watchers[w] = struct{}{}
	d.watchMu.Unlock()
	return w, nil
}

// watchShared adds the standing query to the deployment's shard:
// equivalent patterns join a live block for free; a new distinct
// pattern rebuilds the union session over the live blocks plus itself
// (one full evaluation — the same price Watch always paid — after which
// every batch is absorbed once for all members).
func (d *Deployment) watchShared(ctx context.Context, q *Pattern) (*Maintained, error) {
	c := plan.Canonicalize(q.p)
	sh := &d.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Equivalent to a live block? Join it: compose the two canonical
	// permutations into a node remap and read the leader's relation.
	for _, b := range sh.blocks {
		if b.refs > 0 && b.key == c.Key {
			b.refs++
			remap := composeRemap(b.perm, c.Perm)
			return newHandle(d, q, sh, b, remap), nil
		}
	}
	// Distinct pattern: rebuild the union session from the live blocks
	// plus the newcomer (dead blocks are pruned here). The old session
	// stays untouched until the new one is up, so a failed Watch leaves
	// every existing handle exactly as it was.
	live := make([]*watchBlock, 0, len(sh.blocks)+1)
	for _, b := range sh.blocks {
		if b.refs > 0 {
			live = append(live, b)
		}
	}
	nb := &watchBlock{key: c.Key, q: q.p, perm: c.Perm, refs: 1}
	live = append(live, nb)
	qs := make([]*pattern.Pattern, len(live))
	for i, b := range live {
		qs[i] = b.q
	}
	st, err := dgpm.NewStanding(ctx, d.c, d.part.fr, qs, d.planFor)
	if err != nil {
		return nil, err
	}
	if sh.st != nil {
		sh.st.Close()
	}
	sh.st = st
	sh.blocks = live
	sh.refreshed = d.version.Load()
	sh.stale = false
	sh.last = fromCluster(st.LastStats())
	return newHandle(d, q, sh, nb, identityPerm(q.p.NumNodes())), nil
}

// newHandle builds a Maintained over its shard block, snapshotting the
// current relation. Callers must hold d.state (read) and sh.mu, so no
// concurrent rebuild races the snapshot.
func newHandle(d *Deployment, q *Pattern, sh *watchShard, b *watchBlock, remap []int) *Maintained {
	w := &Maintained{d: d, q: q, shard: sh, block: b, remap: remap}
	if m := sh.snapshotLocked(b, remap); m != nil {
		w.cur = &Match{m: m}
	} else {
		w.cur = &Match{m: emptyRelation(q.p.NumNodes())}
	}
	w.last = sh.last
	return w
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// composeRemap maps the handle pattern's nodes onto the leader
// pattern's: node u of the joiner occupies canonical position
// joinPerm[u], which the leader fills with the node whose leadPerm
// entry is that position.
func composeRemap(leadPerm, joinPerm []int) []int {
	inv := make([]int, len(leadPerm))
	for u, pos := range leadPerm {
		inv[pos] = u
	}
	remap := make([]int, len(joinPerm))
	for u, pos := range joinPerm {
		remap[u] = inv[pos]
	}
	return remap
}

// emptyRelation is the canonical empty match relation over n query
// nodes.
func emptyRelation(n int) *simulation.Match {
	return simulation.NewMatch(n).Canonical()
}

// watchShard is a deployment's standing queries, fed by one
// dgpm.Standing session: its blocks, one per distinct pattern, are read
// by one or more Maintained handles each. All fields are guarded by mu.
type watchShard struct {
	mu     sync.Mutex
	st     *dgpm.Standing // nil once every block's handles closed
	blocks []*watchBlock  // aligned with st's member patterns
	// refreshed is the graph version the session last absorbed. Apply
	// touches every handle, but a shared session must pay each batch
	// once: later handles of the same batch hit the version guard and
	// only re-read their block.
	refreshed uint64
	// stale marks a failed (cancelled) refresh; the next window
	// re-evaluates.
	stale bool
	// lastWasReeval records whether the last window was a full
	// re-evaluation (for ApplyStats.Reevaluated accounting on
	// non-driving handles).
	lastWasReeval bool
	// last is the cost of the last refresh window.
	last Stats
}

// refresh absorbs one committed batch (graph version ver) into the
// session, once: the first handle of the batch drives the work and gets
// its stats back for aggregation; subsequent handles see the version
// guard and return zero stats. A shard that missed a version entirely
// (its handles were marked stale mid-Apply) cannot trust this batch's
// deletions alone and re-evaluates.
func (sh *watchShard) refresh(ctx context.Context, ver uint64, dels [][2]NodeID, hasIns bool) (reeval bool, st Stats, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.st == nil {
		return false, Stats{}, nil
	}
	if sh.refreshed == ver && !sh.stale {
		return sh.lastWasReeval, Stats{}, nil
	}
	reeval = hasIns || sh.stale || sh.refreshed+1 != ver
	if reeval {
		err = sh.st.Reevaluate(ctx)
	} else {
		err = sh.st.ApplyDeletions(ctx, dels)
	}
	sh.lastWasReeval = reeval
	if err != nil {
		sh.stale = true
		return reeval, Stats{}, err
	}
	sh.stale = false
	sh.refreshed = ver
	sh.last = fromCluster(sh.st.LastStats())
	return reeval, sh.last, nil
}

// reevaluate unconditionally re-runs the standing fixpoint (user
// Refresh, failover recovery — the version guard must not skip it: the
// graph may be unchanged while the per-site engines are gone). Callers
// with several handles to bring up to date call it once and resync each
// handle.
func (sh *watchShard) reevaluate(ctx context.Context, ver uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.st == nil {
		return nil
	}
	err := sh.st.Reevaluate(ctx)
	sh.lastWasReeval = true
	if err != nil {
		sh.stale = true
		return err
	}
	sh.stale = false
	sh.refreshed = ver
	sh.last = fromCluster(sh.st.LastStats())
	return nil
}

// snapshot reads block b's relation remapped into a handle's node
// order; nil if the block is gone (closed shard).
func (sh *watchShard) snapshot(b *watchBlock, remap []int) *simulation.Match {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.snapshotLocked(b, remap)
}

func (sh *watchShard) snapshotLocked(b *watchBlock, remap []int) *simulation.Match {
	if sh.st == nil {
		return nil
	}
	for k, o := range sh.blocks {
		if o == b {
			cur := sh.st.Current(k)
			m := simulation.NewMatch(len(remap))
			for u, lu := range remap {
				m.Sets[u] = cur.Sets[lu]
			}
			return m
		}
	}
	return nil
}

func (sh *watchShard) lastStats() Stats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.last
}

// release drops one handle's reference to its block. A block at zero
// references stops being evaluated at the next rebuild; once every
// block is dead the session itself is closed (the next Watch starts a
// fresh one).
func (sh *watchShard) release(b *watchBlock) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b.refs--; b.refs > 0 {
		return
	}
	for _, o := range sh.blocks {
		if o.refs > 0 {
			return
		}
	}
	if sh.st != nil {
		sh.st.Close()
		sh.st = nil
	}
	sh.blocks = nil
}

// watchBlock is one member pattern of a shard: the leader pattern the
// session evaluates, its canonical form, and how many open handles read
// it. Guarded by the owning shard's mu.
type watchBlock struct {
	key  string           // canonical key
	q    *pattern.Pattern // leader pattern, as evaluated by the session
	perm []int            // leader node -> canonical position
	refs int
}

// Maintained is a standing query's handle: a match relation kept current
// by the deployment's Apply batches.
type Maintained struct {
	d *Deployment
	q *Pattern

	// shard/block/remap locate this handle's relation inside its
	// maintenance session; remap[u] is the leader-pattern node matching
	// the handle pattern's node u. A nil shard is the static-∅ handle of
	// an absent-label pattern. Immutable after Watch.
	shard *watchShard
	block *watchBlock
	remap []int

	mu     sync.Mutex
	cur    *Match
	last   Stats
	stale  bool
	closed bool
}

// Pattern returns the standing query.
func (w *Maintained) Pattern() *Pattern { return w.q }

// Current returns the maintained match relation as of the last
// successfully applied batch.
func (w *Maintained) Current() *Match {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cur
}

// LastStats reports the distributed cost of the last refresh window:
// the initial evaluation, a deletion batch's incremental refinement, or
// an insertion batch's re-evaluation. Handles sharing a session report
// the shared window's cost.
func (w *Maintained) LastStats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// Stale reports whether the relation is out of date because a refresh
// was cancelled; the next Apply or Refresh re-evaluates.
func (w *Maintained) Stale() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stale
}

// markStale flags the relation as out of date without refreshing it
// (an earlier handle's refresh failed mid-Apply; the batch is already
// committed to the graph).
func (w *Maintained) markStale() {
	w.mu.Lock()
	if !w.closed && w.shard != nil {
		w.stale = true
	}
	w.mu.Unlock()
}

// refresh brings the standing relation up to date with one committed
// batch. It returns whether a full re-evaluation ran, and the cost to
// aggregate — zero for handles whose shard already absorbed the batch.
func (w *Maintained) refresh(ctx context.Context, dels [][2]NodeID, hasIns bool) (reeval bool, st Stats, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.shard == nil {
		// Closed, or static-∅: nothing to do (an absent label cannot be
		// matched into existence by edge updates).
		return false, Stats{}, nil
	}
	reeval, st, err = w.shard.refresh(ctx, w.d.version.Load(), dels, hasIns)
	w.resyncLocked(err)
	return reeval, st, err
}

// resync is resyncLocked for a window the handle did not drive itself
// (recovery re-evaluates the shard once for all handles).
func (w *Maintained) resync(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed && w.shard != nil {
		w.resyncLocked(err)
	}
}

// resyncLocked brings the handle in line with its shard after a refresh
// window that ended with err: stale on failure, else the block's current
// relation and the window's cost. Callers hold w.mu.
func (w *Maintained) resyncLocked(err error) {
	if err != nil {
		w.stale = true
		return
	}
	w.stale = false
	if m := w.shard.snapshot(w.block, w.remap); m != nil {
		w.cur = &Match{m: m}
	}
	w.last = w.shard.lastStats()
}

// Refresh re-evaluates the standing query against the current graph now
// — useful after a cancelled Apply left the handle stale, and the
// recovery path for sessions lost with a failed site.
func (w *Maintained) Refresh(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w.d.state.RLock()
	defer w.d.state.RUnlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errorf("refresh: standing query is closed")
	}
	if w.shard == nil {
		return nil
	}
	err := w.shard.reevaluate(ctx, w.d.version.Load())
	w.resyncLocked(err)
	if err != nil {
		return errorf("refresh: %w", err)
	}
	return nil
}

// Close unregisters the standing query and releases its share of the
// maintenance session. The last relation remains readable via Current.
// Idempotent.
func (w *Maintained) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.shard != nil {
		w.shard.release(w.block)
	}
	w.d.watchMu.Lock()
	delete(w.d.watchers, w)
	w.d.watchMu.Unlock()
	return nil
}
