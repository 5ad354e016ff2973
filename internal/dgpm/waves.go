package dgpm

// dGPMd's release (§5.1, Theorem 3). For a DAG pattern Q the rank r(u) —
// 0 for leaves, else 1 + max over children — stratifies the Boolean
// variables: X(u,v) depends only on variables of strictly smaller rank.
// So a site ships its falsified in-node variables in rank waves: the
// rank-r wave (one RankBatch per watching site, possibly empty) leaves
// once every batch of rank < r it expects has arrived, because its rank-r
// variables are final then. After at most d waves every variable is
// final, without a fixpoint iteration.

import (
	"dgs/internal/cluster"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/wire"
)

// rankWaves is a dGPMd site's wave state.
type rankWaves struct {
	ri *pattern.RankInfo
	// ix is the engine's index: its numbering and watcher rows.
	ix *partition.Index
	// need[r] and got[r] count the rank-r batches expected and received.
	need, got []int
	// plan[r] lists, ascending, the sites expecting this site's rank-r
	// batch.
	plan [][]int32
	// buf[r] holds the falsified in-node variables of rank r not yet
	// shipped.
	buf [][]visVar
	// next is the next wave to emit, from 1.
	next int
}

// startWaves derives the wave schedule from the engine's index and ships
// what the initial evaluation makes final. A site expects one batch per
// rank from each owner of a virtual node that ships at that rank, and
// owes one per rank to each site watching an in-node that ships at it.
func (s *site) startWaves(ctx *cluster.Ctx) {
	w, ix, n := s.waves, s.eng.ix, ctx.NumSites()
	d := w.ri.MaxRank
	w.ix, w.next = ix, 1
	w.need, w.got = make([]int, d+1), make([]int, d+1)
	w.plan, w.buf = make([][]int32, d+1), make([][]visVar, d+1)
	marks := make([]bool, (d+1)*n) // rank·n + site
	for _, l := range w.ri.Labels {
		for _, vi := range ix.Virt[l] {
			owner := int(s.assign[ix.Vis[vi]])
			for _, r := range w.ri.ShipRanks(l) {
				if k := r*n + owner; !marks[k] {
					marks[k] = true
					w.need[r]++
				}
			}
		}
	}
	clear(marks)
	for _, li := range ix.In {
		rs := w.ri.ShipRanks(ix.Labels[li])
		for _, dest := range ix.Watchers(li) {
			for _, r := range rs {
				marks[r*n+int(dest)] = true
			}
		}
	}
	for r := 1; r <= d; r++ {
		for dest, ok := range marks[r*n : (r+1)*n] {
			if ok {
				w.plan[r] = append(w.plan[r], int32(dest))
			}
		}
	}
	s.bufferDeaths(s.eng.drain())
	s.advance(ctx)
}

// recvWave applies a neighbour's rank batch and emits the waves it
// completes.
func (s *site) recvWave(ctx *cluster.Ctx, m *wire.RankBatch) {
	w := s.waves
	if int(m.Rank) >= len(w.got) {
		return
	}
	w.got[m.Rank]++
	s.eng.ApplyFalsifications(m.Pairs)
	s.bufferDeaths(s.eng.drain())
	s.advance(ctx)
}

// bufferDeaths files freshly falsified in-node variables under their
// rank; those of rank 0 and of nodes without a parent have no reader.
func (s *site) bufferDeaths(kills []visVar) {
	w := s.waves
	for _, x := range kills {
		if r := w.ri.Ranks[x.u]; r >= 1 && s.read(x.u) {
			w.buf[r] = append(w.buf[r], x)
		}
	}
}

// advance emits every wave whose prerequisites are complete: the rank-r
// wave leaves once all expected batches of rank < r have arrived. Waves
// leave in rank order, so when wave r is next, those below r−1 are
// complete already.
func (s *site) advance(ctx *cluster.Ctx) {
	w := s.waves
	for w.next < len(w.need) {
		if r := w.next - 1; r >= 1 && w.got[r] < w.need[r] {
			return
		}
		r := w.next
		w.next++
		if len(w.plan[r]) == 0 {
			continue
		}
		ctx.AddRounds(1)
		for _, x := range w.buf[r] {
			ref := s.eng.ref(x)
			for _, dest := range w.ix.Watchers(x.vi) {
				s.perDest[dest] = append(s.perDest[dest], ref)
			}
		}
		w.buf[r] = nil
		for _, dest := range w.plan[r] {
			// Send encodes before it returns, so the row is free for reuse.
			ctx.Send(int(dest), &wire.RankBatch{Rank: uint16(r), Pairs: s.perDest[dest]})
			s.perDest[dest] = s.perDest[dest][:0]
		}
	}
}
