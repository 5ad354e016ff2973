package dgs

// Mutable deployments: live edge updates with distributed incremental
// maintenance. Apply routes a batch of edge deletions/insertions to the
// owning sites, which mutate their resident fragments in place; one-shot
// Query calls always see the current graph. Watch registers a standing
// query whose match relation is refined incrementally on each deletion
// batch (the O(|AFF|) deletion case of [13], run distributed over the
// falsification messaging), with insertions falling back to a
// re-evaluation of the standing query. A deployment's standing queries
// are blocks of one shared session (watchShard), refreshed once per
// batch; a Maintained handle is a view of its block. See DESIGN.md
// §"The update lifecycle" for the semantics and the interaction with
// in-flight queries.

import (
	"context"
	"errors"
	"slices"
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

	// Refresh the standing queries: one window of the shared session
	// absorbs the batch for every handle. A failed window (ctx
	// cancellation) leaves the shard stale, and with it every handle,
	// until the next Apply or Refresh re-evaluates.
	//
	// A site lost mid-refresh is the one failure that must NOT fail the
	// Apply: the batch is committed on the driver, so an error here would
	// tell a retrying caller the batch never landed and make it
	// re-submit ops the overlay has already absorbed. The shard is
	// stale either way, and the recovery that clears the loss
	// re-evaluates it against the committed graph (failover.go); any
	// other error still surfaces.
	st.Reevaluated, st.Maintenance, err = d.shard.refresh(ctx, dels, len(ins) > 0)
	if err != nil && !errors.Is(err, cluster.ErrSiteLost) {
		return st, errorf("apply: standing query refresh: %w", publicErr(err))
	}
	return st, nil
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

	if d.planFor(q.p).Empty {
		// Absent label: Q(G) = ∅ now and after every future batch (edge
		// updates cannot mint label occurrences), so the handle is
		// static — no session, no refresh work, never stale.
		empty := &Match{m: simulation.NewMatch(q.p.NumNodes()).Canonical()}
		return &Maintained{d: d, q: q, final: &handleView{cur: empty}}, nil
	}
	w, err := d.watchShared(ctx, q)
	if err != nil {
		return nil, errorf("watch: %w", err)
	}
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
			return &Maintained{d: d, q: q, shard: sh, block: b, remap: composeRemap(b.perm, c.Perm)}, nil
		}
	}
	// Distinct pattern: rebuild the union session from the live blocks
	// plus the newcomer (dead blocks are pruned here). The old session
	// stays untouched until the new one is up, so a failed Watch leaves
	// every existing handle exactly as it was; a successful one leaves
	// every handle reading the fresh session, stale or not before.
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
	st, err := dgpm.NewStanding(ctx, d.c, d.part.fr, qs)
	if err != nil {
		return nil, err
	}
	if sh.st != nil {
		sh.st.Close()
	}
	sh.st = st
	sh.blocks = live
	sh.stale = false
	return &Maintained{d: d, q: q, shard: sh, block: nb, remap: identityPerm(q.p.NumNodes())}, nil
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

// watchShard is a deployment's standing queries, fed by one
// dgpm.Standing session: its blocks, one per distinct pattern, are read
// by one or more Maintained handles each. It is the only holder of
// standing-query state; a handle is a view of its block. All fields are
// guarded by mu.
type watchShard struct {
	mu     sync.Mutex
	st     *dgpm.Standing // nil once every block's handles closed
	blocks []*watchBlock  // aligned with st's member patterns
	// stale marks a failed (cancelled) window: st still serves the last
	// successful window's relations and cost, and the next window
	// re-evaluates.
	stale bool
}

// refresh absorbs one committed batch into the session, once for every
// handle: incrementally for a deletion-only batch, by re-evaluation
// when the batch inserts edges or the last window failed. It returns how
// many open handles a re-evaluation brought up to date (0 for an
// incremental window) and the window's cost. A failed window leaves the
// shard stale.
func (sh *watchShard) refresh(ctx context.Context, dels [][2]NodeID, hasIns bool) (reevaluated int, st Stats, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.st == nil {
		return 0, Stats{}, nil
	}
	reeval := hasIns || sh.stale
	if reeval {
		err = sh.st.Reevaluate(ctx)
	} else {
		err = sh.st.ApplyDeletions(ctx, dels)
	}
	if sh.stale = err != nil; sh.stale {
		return 0, Stats{}, err
	}
	if reeval {
		for _, b := range sh.blocks {
			reevaluated += b.refs
		}
	}
	return reevaluated, fromCluster(sh.st.LastStats()), nil
}

// reevaluate unconditionally re-runs the standing fixpoint (user
// Refresh, failover recovery: the graph may be unchanged while the
// per-site engines are gone).
func (sh *watchShard) reevaluate(ctx context.Context) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.st == nil {
		return nil
	}
	err := sh.st.Reevaluate(ctx)
	sh.stale = err != nil
	return err
}

// view is what a handle on block b reports: the block's relation
// remapped into the handle's node order, the last window's cost, and
// whether that window failed. b must be a live block.
func (sh *watchShard) view(b *watchBlock, remap []int) handleView {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.st.Current(slices.Index(sh.blocks, b))
	m := simulation.NewMatch(len(remap))
	for u, lu := range remap {
		m.Sets[u] = cur.Sets[lu]
	}
	return handleView{cur: &Match{m: m}, last: fromCluster(sh.st.LastStats()), stale: sh.stale}
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
	closed bool
	// final, when set, is what the handle reports instead of reading its
	// shard: the static ∅ from Watch on, or the view frozen at Close.
	final *handleView
}

// handleView is what a standing-query handle reports.
type handleView struct {
	cur   *Match
	last  Stats
	stale bool
}

// view reads the handle's fixed values if it has them, else its block.
func (w *Maintained) view() handleView {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.final != nil {
		return *w.final
	}
	return w.shard.view(w.block, w.remap)
}

// Pattern returns the standing query.
func (w *Maintained) Pattern() *Pattern { return w.q }

// Current returns the maintained match relation as of the last
// successfully applied batch.
func (w *Maintained) Current() *Match { return w.view().cur }

// LastStats reports the distributed cost of the last refresh window:
// the initial evaluation, a deletion batch's incremental refinement, or
// an insertion batch's re-evaluation. Handles sharing a session report
// the shared window's cost.
func (w *Maintained) LastStats() Stats { return w.view().last }

// Stale reports whether the relation is out of date because a refresh
// was cancelled; the next Apply or Refresh re-evaluates.
func (w *Maintained) Stale() bool { return w.view().stale }

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
	if err := w.shard.reevaluate(ctx); err != nil {
		return errorf("refresh: %w", err)
	}
	return nil
}

// Close unregisters the standing query and releases its share of the
// maintenance session. The last relation remains readable via Current.
// Idempotent.
func (w *Maintained) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.shard != nil {
		v := w.shard.view(w.block, w.remap)
		w.final = &v
		w.shard.release(w.block)
	}
	return nil
}
