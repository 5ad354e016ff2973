package dgs

// Networked-deployment tests: the same deployments the in-process tests
// exercise, but spanning dgsd site servers over loopback TCP — fragment
// shipping at Deploy time, hub-routed sessions, measured wire bytes, and
// the live-update path (Apply + Watch) across process boundaries. The
// servers run in-process against 127.0.0.1 listeners; the code path is
// exactly cmd/dgsd's.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dgs/internal/transport/tcpnet"
)

// startSiteServers starts k dgsd-equivalent site servers on loopback
// listeners and returns their addresses. Each serves any number of
// sequential deployments until the test ends.
func startSiteServers(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &tcpnet.Server{}
		go srv.Serve(lis)
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr().String()
	}
	return addrs
}

// TestRemoteDeployBasics: a two-daemon deployment answers queries
// identically to an in-process one and meters real socket traffic.
func TestRemoteDeployBasics(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 400, 1200, 7)
	q := GenCyclicPatternOver(dict, 4, 6, 4, 8)
	part, err := PartitionTargetRatio(g, 5, ByVf, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startSiteServers(t, 2)
	dep, err := Deploy(part, WithRemoteSites(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if !dep.Remote() {
		t.Fatal("WithRemoteSites deployment must report Remote")
	}
	oracle := Simulate(q, g)
	res, err := dep.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(oracle) {
		t.Fatalf("remote dGPM diverges from Simulate:\noracle %v\ngot    %v", oracle, res.Match)
	}
	if res.Stats.WireBytes <= res.Stats.DataBytes {
		t.Fatalf("WireBytes %d should exceed payload DataBytes %d (framing, acks, control)",
			res.Stats.WireBytes, res.Stats.DataBytes)
	}
	// Per-query isolation of the wire meter: a second query starts fresh.
	res2, err := dep.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.WireBytes > 2*res.Stats.WireBytes {
		t.Fatalf("second query's wire meter (%d) not isolated from first (%d)",
			res2.Stats.WireBytes, res.Stats.WireBytes)
	}
}

// TestRemoteApplyWatch: the acceptance round trip — a standing query and
// live edge updates against a deployment spanning two site-server
// processes, refined incrementally and verified against the centralized
// oracle on the mutated graph.
func TestRemoteApplyWatch(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, 17)
	q := GenCyclicPatternOver(dict, 4, 6, 4, 18)
	part, err := PartitionTargetRatio(g, 4, ByVf, 0.3, 19)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startSiteServers(t, 2)
	dep, err := Deploy(part, WithRemoteSites(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()

	w, err := dep.Watch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if oracle := Simulate(q, g); !w.Current().Equal(oracle) {
		t.Fatal("standing query's initial relation diverges from Simulate")
	}

	// Delete a slice of existing edges (deletion-only: the incremental
	// O(|AFF|) path), then insert some of them back (the re-evaluation
	// fallback) — both across the wire.
	var ops []EdgeOp
	cur := dep.Partition().CurrentGraph()
	count := 0
	for v := 0; v < cur.NumNodes() && len(ops) < 40; v++ {
		for _, w2 := range cur.Succ(NodeID(v)) {
			if count%7 == 0 {
				ops = append(ops, DeleteOp(NodeID(v), w2))
				if len(ops) >= 40 {
					break
				}
			}
			count++
		}
	}
	if len(ops) == 0 {
		t.Fatal("workload produced no deletable edges")
	}
	st, err := dep.Apply(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deletions != len(ops) || st.Reevaluated != 0 {
		t.Fatalf("deletion batch misreported: %+v", st)
	}
	if st.Delta.WireBytes == 0 || st.Maintenance.WireBytes == 0 {
		t.Fatalf("update distribution must meter wire bytes remotely: %+v", st)
	}
	afterDel := dep.Partition().CurrentGraph()
	if oracle := Simulate(q, afterDel); !w.Current().Equal(oracle) {
		t.Fatal("incrementally maintained relation diverges from oracle after deletions")
	}
	// One-shot queries see the mutated remote fragments too.
	res, err := dep.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if oracle := Simulate(q, afterDel); !res.Match.Equal(oracle) {
		t.Fatal("one-shot query diverges from oracle after deletions")
	}

	// Insert half of the deleted edges back.
	var back []EdgeOp
	for i, op := range ops {
		if i%2 == 0 {
			back = append(back, InsertOp(op.V, op.W))
		}
	}
	st, err = dep.Apply(ctx, back)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insertions != len(back) || st.Reevaluated != 1 {
		t.Fatalf("insertion batch misreported: %+v", st)
	}
	afterIns := dep.Partition().CurrentGraph()
	if oracle := Simulate(q, afterIns); !w.Current().Equal(oracle) {
		t.Fatal("re-evaluated relation diverges from oracle after insertions")
	}
	if oracle := Simulate(q, afterIns); !Simulate(q, dep.Partition().CurrentGraph()).Equal(oracle) {
		t.Fatal("oracle sanity")
	}
}

// TestCoalescingStatsParity: frame coalescing must be invisible to
// results and accounting. Every algorithm answers identically to the
// oracle over an in-process deployment (no frames at all) and a TCP
// deployment (MSGB/ACKN coalescing) of the same partition; and wherever
// an algorithm's stats are deterministic — established by running each
// transport twice and checking it agrees with itself — the TCP path
// must report exactly the in-process DataMsgs/DataBytes/Rounds. dGPM
// flushes once per drained mailbox run, so its message and round counts
// depend on how many envelopes a site found queued; it is held to its
// schedule-independent quantity instead, the falsified variables
// shipped (dgpmShipped). (Algorithms whose counts depend on
// arrival-order batching are exempt from the exact-stats clause, never
// from result parity.)
func TestCoalescingStatsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback-TCP parity skipped in -short mode")
	}
	dict := NewDict()
	g := GenSynthetic(dict, 300, 900, 41)
	q, err := GenDAGPattern(dict, 5, 7, 3, 42) // DAG pattern: admits dGPMd on a cyclic graph
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionBlocks(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := Simulate(q, g)
	addrs := startSiteServers(t, 2)
	ctx := context.Background()

	algos := []Algorithm{AlgoDGPM, AlgoDGPMNoOpt, AlgoDGPMd, AlgoMatch, AlgoDisHHK, AlgoDMes}
	type record struct {
		msgs, bytes, rounds int64
	}
	runAll := func(opts ...DeployOption) map[Algorithm]record {
		dep, err := Deploy(part, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		out := make(map[Algorithm]record, len(algos))
		for _, algo := range algos {
			res, err := dep.Query(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if !res.Match.Equal(oracle) {
				t.Fatalf("%s diverges from Simulate (remote=%v)", algo, dep.Remote())
			}
			out[algo] = record{res.Stats.DataMsgs, res.Stats.DataBytes, res.Stats.Rounds}
			if algo == AlgoDGPM {
				out[algo] = record{bytes: dgpmShipped(res.Stats)} // counts are schedule-dependent
			}
		}
		if sent, received := dep.WireFrames(); dep.Remote() && (sent == 0 || received == 0) {
			t.Fatalf("deployment reported no wire frames (sent=%d received=%d)", sent, received)
		}
		return out
	}

	locA, locB := runAll(), runAll()
	tcpA, tcpB := runAll(WithRemoteSites(addrs...)), runAll(WithRemoteSites(addrs...))
	for _, algo := range algos {
		if locA[algo] != locB[algo] || tcpA[algo] != tcpB[algo] {
			t.Logf("%s: stats vary across identical runs (in-process %+v vs %+v, tcp %+v vs %+v); exact-stats clause skipped",
				algo, locA[algo], locB[algo], tcpA[algo], tcpB[algo])
			continue
		}
		if locA[algo] != tcpA[algo] {
			t.Errorf("%s: deterministic stats differ across transports: in-process=%+v tcp=%+v",
				algo, locA[algo], tcpA[algo])
		}
	}
}

// TestRemoteDialFailures: a daemon that is not there, and an address
// that is not a dgs daemon, both fail Deploy promptly and cleanly.
func TestRemoteDialFailures(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 50, 120, 3)
	part, err := PartitionBlocks(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(part, WithRemoteSites("127.0.0.1:1")); err == nil {
		t.Fatal("dialing a dead port must fail Deploy")
	}
	// An HTTP-ish listener that just closes: handshake must error, not hang.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	if _, err := Deploy(part, WithRemoteSites(lis.Addr().String())); err == nil {
		t.Fatal("a non-daemon endpoint must fail Deploy")
	}
}

// capturingListener records accepted connections so the test can sever
// them, simulating a daemon crash mid-deployment.
type capturingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *capturingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *capturingListener) severAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestRemoteDaemonLoss: losing a daemon fails in-flight and subsequent
// operations promptly — Query and Apply return errors, never hang.
func TestRemoteDaemonLoss(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 200, 600, 5)
	q := GenCyclicPatternOver(dict, 4, 6, 4, 6)
	part, err := PartitionBlocks(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cap := &capturingListener{Listener: lis}
	srv := &tcpnet.Server{}
	go srv.Serve(cap)
	t.Cleanup(func() { lis.Close() })

	dep, err := Deploy(part, WithRemoteSites(cap.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	cap.severAll() // the daemon "crashes"

	type outcome struct {
		what string
		err  error
	}
	done := make(chan outcome, 2)
	go func() {
		_, err := dep.Query(context.Background(), q)
		done <- outcome{"query", err}
	}()
	go func() {
		_, err := dep.Apply(context.Background(), []EdgeOp{DeleteOp(0, g.Succ(0)[0])})
		done <- outcome{"apply", err}
	}()
	for i := 0; i < 2; i++ {
		select {
		case o := <-done:
			if o.err == nil {
				t.Fatalf("%s on a lost deployment succeeded", o.what)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("operation on a lost deployment hung instead of failing")
		}
	}
}

// TestRemoteTrace: a WithTrace query over a real TCP deployment comes
// back with a complete span tree — coordinator plus every fragment's
// site — whose totals reproduce the query's own Stats aggregates, and
// with the answer unchanged from an untraced run.
func TestRemoteTrace(t *testing.T) {
	dict := NewDict()
	g := GenSynthetic(dict, 400, 1200, 7)
	q := GenCyclicPatternOver(dict, 4, 6, 4, 8)
	part, err := PartitionTargetRatio(g, 4, ByVf, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	oracle := Simulate(q, g)

	addrs := startSiteServers(t, 2)
	dep, err := Deploy(part, WithRemoteSites(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	res, err := dep.Query(context.Background(), q, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match.Equal(oracle) {
		t.Fatalf("traced remote query diverges from Simulate:\noracle %v\ngot    %v", oracle, res.Match)
	}
	tr := res.Trace
	if tr == nil || !tr.Complete || tr.TraceID == 0 {
		t.Fatalf("traced TCP query returned trace %+v", tr)
	}
	seen := map[int]bool{}
	for _, site := range tr.Sites {
		seen[site.Site] = true
	}
	if !seen[-1] {
		t.Fatalf("trace lacks coordinator spans: %+v", tr.Sites)
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("trace lacks spans for site %d: %+v", i, tr.Sites)
		}
	}
	// The spans are exact, not sampled: summed over sites and rounds
	// they must reproduce the session's accounting — every payload byte
	// received once, every recorded round.
	_, _, _, bytesIn, bytesOut, rounds := tr.Totals()
	wantBytes := res.Stats.DataBytes + res.Stats.ControlBytes + res.Stats.ResultBytes
	if bytesIn != wantBytes || bytesOut != wantBytes {
		t.Fatalf("trace bytes in=%d out=%d, want %d (stats %+v)", bytesIn, bytesOut, wantBytes, res.Stats)
	}
	if rounds != res.Stats.Rounds {
		t.Fatalf("trace rounds=%d, stats rounds=%d", rounds, res.Stats.Rounds)
	}

	// An untraced query on the same deployment carries no trace.
	plain, err := dep.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced query returned a trace: %+v", plain.Trace)
	}

}
