package dgpm

// The guard for the tiered §4.2 push test (Engine.planPush): the decision
// procedure it replaced is kept here, verbatim, as the reference —
// per-parent dependence analysis, full extraction, sum, compare — and
// every verdict and every shipped equation must agree with it.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/wire"
	"dgs/internal/workload"
)

// referenceExtract is ExtractSubsystem as it stood before the budgeted,
// memoised version: a fresh dependence analysis per call, every equation
// built, then sorted.
func referenceExtract(e *Engine, requested []graph.NodeID) ([]wire.Equation, []graph.NodeID) {
	e.dep = nil // the reference never shares an analysis
	dep := e.assumptionDependent()
	visited := make(map[varKey]bool)
	leafNodes := make(map[graph.NodeID]bool)
	var eqs []wire.Equation
	var stack []varKey
	push := func(k varKey) {
		if !visited[k] {
			visited[k] = true
			stack = append(stack, k)
		}
	}
	for _, v := range requested {
		for u := 0; u < e.q.NumNodes(); u++ {
			k := key(pattern.QNode(u), v)
			if e.isAlive(k) && !e.isConst(k) && dep.has(k) {
				push(k)
			}
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		groups, isLeaf := e.groupsOf(k)
		if isLeaf {
			leafNodes[k.v()] = true
			continue
		}
		eq := wire.Equation{Target: k.ref()}
		for _, g := range groups {
			refs := make([]wire.VarRef, 0, len(g))
			satisfied := false
			for _, rk := range g {
				if !dep.has(rk) {
					satisfied = true
					break
				}
				refs = append(refs, rk.ref())
			}
			if satisfied {
				continue
			}
			for _, rk := range g {
				push(rk)
			}
			eq.Groups = append(eq.Groups, refs)
		}
		eqs = append(eqs, eq)
	}
	leaves := make([]graph.NodeID, 0, len(leafNodes))
	for v := range leafNodes {
		leaves = append(leaves, v)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	sort.Slice(eqs, func(i, j int) bool {
		a, b := eqs[i].Target, eqs[j].Target
		if a.V != b.V {
			return a.V < b.V
		}
		return a.U < b.U
	})
	return eqs, leaves
}

// referencePlanPush is site.maybePush's decision as it stood before the
// tiered test: the O(1) bound, then extract for every parent, sum the
// encoded sizes, and only then evaluate B(Si) against θ.
func referencePlanPush(e *Engine, theta float64) (plans []pushPlan, totalBytes int) {
	inV, virtV := e.UnevaluatedCounts()
	if inV == 0 || virtV == 0 {
		return nil, 0
	}
	if float64(virtV)/(8*float64(inV)) < theta {
		return nil, 0
	}
	parents := make(map[int][]graph.NodeID)
	for _, v := range e.frag.InNodes {
		for _, w := range e.frag.InWatchers[v] {
			parents[w] = append(parents[w], v)
		}
	}
	dests := make([]int, 0, len(parents))
	for d := range parents {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		eqs, leaves := referenceExtract(e, parents[d])
		if len(eqs) == 0 {
			continue
		}
		for i := range eqs {
			totalBytes += eqs[i].EncodedSize()
		}
		plans = append(plans, pushPlan{dest: d, eqs: eqs, leaves: leaves})
	}
	if len(plans) == 0 {
		return nil, 0
	}
	m := float64(totalBytes)
	if m == 0 {
		m = 1
	}
	if float64(virtV)/(m*float64(inV)) < theta {
		return nil, totalBytes
	}
	return plans, totalBytes
}

// tieredPlanPush is the decision site.maybePush takes now.
func tieredPlanPush(e *Engine, theta float64) []pushPlan {
	budget, ok := Config{Push: true, Theta: theta}.budget(e)
	if !ok {
		return nil
	}
	return e.planPush(budget)
}

// pushTally counts how the decisions of a run of checkPush fell.
type pushTally struct {
	pushed, tier1, tier2, tier3, idle int
}

var pushThetas = []float64{0, 0.05, 0.2, 1}

// checkPush compares the tiered decision with the reference on one engine
// at every θ, and tallies the default-θ outcome by the tier that decided.
func checkPush(t *testing.T, e *Engine, tally *pushTally) bool {
	t.Helper()
	ok := true
	for _, theta := range pushThetas {
		// Tiered first: it must not lean on an analysis the reference
		// leaves behind. (It may reuse its own, from before the engine
		// last changed, if the memo were not invalidated.)
		got := tieredPlanPush(e, theta)
		want, _ := referencePlanPush(e, theta)
		if !reflect.DeepEqual(got, want) {
			t.Logf("frag %d θ=%v: tiered %+v, reference %+v", e.frag.ID, theta, got, want)
			ok = false
		}
		if theta != DefaultConfig().Theta {
			continue
		}
		inV, virtV := e.UnevaluatedCounts()
		if inV == 0 || virtV == 0 {
			tally.idle++
			continue
		}
		budget := pushBudget(virtV, inV, theta)
		switch {
		case got != nil:
			tally.pushed++
		case minEquationBytes > budget:
			tally.tier1++
		case e.certainPushBytes(budget) > budget:
			tally.tier2++
		case e.planPush(math.MaxInt) != nil:
			tally.tier3++
		default:
			tally.idle++ // nothing assumption-dependent to ship
		}
	}
	// The tier-2 bound is a lower bound on what the full extraction ships.
	if _, total := referencePlanPush(e, 0); e.certainPushBytes(math.MaxInt) > total {
		t.Logf("frag %d: certain bytes %d exceed the extraction's %d", e.frag.ID, e.certainPushBytes(math.MaxInt), total)
		ok = false
	}
	return ok
}

// checkPushLifecycle runs checkPush on every fragment's engine at the
// points a site can decide: after the initial evaluation, after a batch
// of received falsifications, after installing a child's pushed
// equations, and after falsifications against those. Each later point
// follows a tiered decision on the same engine, so a dependence set
// memoised across the mutation would show.
func checkPushLifecycle(t *testing.T, r *rand.Rand, q *pattern.Pattern, fr *partition.Fragmentation, tally *pushTally) bool {
	t.Helper()
	ok := true
	engs := make([]*Engine, len(fr.Frags))
	for i, f := range fr.Frags {
		engs[i] = NewEnginePlanned(q, f, nil)
		engs[i].Drain()
		ok = checkPush(t, engs[i], tally) && ok
	}
	for i, f := range fr.Frags {
		var batch []wire.VarRef
		for _, v := range f.Virtual {
			if r.Intn(3) == 0 {
				batch = append(batch, wire.VarRef{U: uint16(r.Intn(q.NumNodes())), V: uint32(v)})
			}
		}
		engs[i].ApplyFalsifications(batch)
		ok = checkPush(t, engs[i], tally) && ok
	}
	// Every child's θ=0 push, gathered before any is installed.
	var pushes []pushPlan
	for _, e := range engs {
		plans, _ := referencePlanPush(e, 0)
		pushes = append(pushes, plans...)
	}
	for _, pl := range pushes {
		e := engs[pl.dest]
		e.InstallEquations(pl.eqs)
		ok = checkPush(t, e, tally) && ok
		// Falsify some of what the installed equations reference: leaves
		// and equation variables outside the fragment's view among them.
		var batch []wire.VarRef
		for _, eq := range pl.eqs {
			for _, g := range eq.Groups {
				if r.Intn(3) == 0 {
					batch = append(batch, g[r.Intn(len(g))])
				}
			}
		}
		e.ApplyFalsifications(batch)
		ok = checkPush(t, e, tally) && ok
	}
	return ok
}

// fig2Cycle is the Fig. 2 gadget: n (A,B) pairs in one cycle, a pair per
// fragment.
func fig2Cycle(t *testing.T, n int) (*pattern.Pattern, *partition.Fragmentation) {
	d := graph.NewDict()
	g := workload.Chain(d, n, true)
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(v / 2)
	}
	return workload.ChainQuery(d), mustPartition(t, g, assign)
}

// pushTree is a data tree cut so that fragment 1 = {r, x} has one in-node
// variable and 1+k unevaluated virtual ones: p → r, r → x, r → c, and
// x → d1..dk, under the path query a → b → c. Its whole subsystem is
// X(a,r) = X(b,c), 18 bytes, so B = (1+k)/18: the smallest push the
// default θ accepts is k = 3.
func pushTree(t *testing.T, k int) (*pattern.Pattern, *partition.Fragmentation) {
	d := graph.NewDict()
	q := pattern.MustParse(d, "node a A\nnode b B\nnode c C\nedge a b\nedge b c")
	b := graph.NewBuilderDict(d)
	p, r, x, c := b.AddNode("Z"), b.AddNode("A"), b.AddNode("A"), b.AddNode("B")
	b.AddEdge(p, r)
	b.AddEdge(r, x)
	b.AddEdge(r, c)
	assign := []int32{0, 1, 1, 2}
	for i := 0; i < k; i++ {
		b.AddEdge(x, b.AddNode("B"))
		assign = append(assign, 2)
	}
	return q, mustPartition(t, b.MustBuild(), assign)
}

func TestPushDecisionFixtures(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tally pushTally
	check := func(name string, q *pattern.Pattern, fr *partition.Fragmentation) {
		if !checkPushLifecycle(t, r, q, fr, &tally) {
			t.Errorf("%s: tiered push decision differs from the reference", name)
		}
	}
	q, g, _, assign := fig1()
	check("fig1", q, mustPartition(t, g, assign))
	for _, n := range []int{2, 5, 9} {
		q, fr := fig2Cycle(t, n)
		check("fig2", q, fr)
	}
	for k := 0; k <= 4; k++ {
		q, fr := pushTree(t, k)
		check("push tree", q, fr)
	}
	labels := workload.Labels(3)
	for seed := int64(1); seed <= 3; seed++ {
		d := graph.NewDict()
		tree := workload.TreeDict(d, 300, labels, seed)
		fr, err := partition.ConnectedTree(tree, 6)
		if err != nil {
			t.Fatal(err)
		}
		check("tree", workload.TreePattern(d, 4, labels, seed), fr)

		d = graph.NewDict()
		dag := workload.CitationDict(d, 300, 900, seed)
		fr, err = partition.Random(dag, 5, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		dq, err := workload.DAGPattern(d, 4, 5, 2, workload.Labels(4), seed)
		if err != nil {
			t.Fatal(err)
		}
		check("dag", dq, fr)
	}
	// No tier is dead code, and the default θ does push.
	t.Logf("default θ: %+v", tally)
	if tally.pushed == 0 || tally.tier1 == 0 || tally.tier2 == 0 || tally.tier3 == 0 {
		t.Fatalf("fixtures must push and decline at every tier at the default θ: %+v", tally)
	}
}

func TestQuickPushDecisionMatchesReference(t *testing.T) {
	var tally pushTally
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, _, fr := randomCase(r)
		return checkPushLifecycle(t, r, q, fr, &tally)
	}
	n := 150
	if testing.Short() {
		n = 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
	t.Logf("default θ: %+v", tally)
}

// A default-θ push ships end to end: the pushTree site's benefit clears
// 0.2, its parent receives the equation, and the answer is unchanged.
func TestDefaultThetaPushShips(t *testing.T) {
	q, fr := pushTree(t, 3)
	want, off := run(q, fr, Config{Incremental: true})
	got, on := run(q, fr, DefaultConfig())
	if !want.Equal(got) {
		t.Fatalf("push changed the answer: %v vs %v", got, want)
	}
	if off.PushMsgs != 0 || off.PushBytes != 0 {
		t.Fatalf("push disabled, yet %d push messages (%d B)", off.PushMsgs, off.PushBytes)
	}
	if on.PushMsgs != 1 || on.PushBytes == 0 {
		t.Fatalf("default θ must ship exactly one push here, got %d (%d B)", on.PushMsgs, on.PushBytes)
	}
	// Just under the bar, the same site declines.
	q, fr = pushTree(t, 2)
	if _, st := run(q, fr, DefaultConfig()); st.PushMsgs != 0 {
		t.Fatalf("B = 3/18 < 0.2 must not push, got %d push messages", st.PushMsgs)
	}
}
