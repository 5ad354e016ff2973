package serve

// Serving-layer semantics: cache hits/misses/invalidation, coalescing,
// and — the load-bearing one — gateway conformance: the HTTP path must
// return exactly the relation Deployment.Query computes, across the
// algorithm matrix.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dgs"
)

// world is a small deployed graph fronted by a Server.
type world struct {
	dict *dgs.Dict
	g    *dgs.Graph
	part *dgs.Partition
	dep  *dgs.Deployment
	srv  *Server
}

func newWorld(t *testing.T, opts Options, dopts ...dgs.DeployOption) *world {
	t.Helper()
	dict := dgs.NewDict()
	g := dgs.GenSynthetic(dict, 400, 1200, 7)
	part, err := dgs.PartitionRandom(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := dgs.Deploy(part, dopts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	return &world{dict: dict, g: g, part: part, dep: dep, srv: New(dep, dict, opts)}
}

func (w *world) pattern() string {
	return "node a l0\nnode b l1\nedge a b\nedge b a\n"
}

func TestCacheHitMissInvalidate(t *testing.T) {
	w := newWorld(t, Options{})
	ctx := context.Background()
	req := QueryRequest{Pattern: w.pattern()}

	r1, err := w.srv.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first query reported cached")
	}
	r2, err := w.srv.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("identical second query missed the cache")
	}
	if r2.Pairs != r1.Pairs || r2.OK != r1.OK || r2.Version != r1.Version {
		t.Fatalf("cached response diverged: %+v vs %+v", r2, r1)
	}

	// A pattern written in different formatting canonicalizes to the
	// same key (renamed equivalents share it too; see
	// TestCacheSharedAcrossRenamedPatterns).
	r3, err := w.srv.Query(ctx, QueryRequest{Pattern: "  node a l0\n\n# comment\nnode b l1\nedge a b\nedge b a"})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached {
		t.Fatal("reformatted identical pattern missed the cache")
	}

	// NoCache bypasses without disturbing the entry.
	r4, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern(), NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cached {
		t.Fatal("NoCache query reported cached")
	}

	// An update bumps the version: the entry is stale, the next query
	// recomputes and re-caches at the new version.
	e := firstEdge(t, w.part.CurrentGraph())
	ar, err := w.srv.Apply(ctx, ApplyRequest{Ops: []ApplyOp{{Del: true, V: e[0], W: e[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Version != r1.Version+1 {
		t.Fatalf("apply moved version to %d, want %d", ar.Version, r1.Version+1)
	}
	r5, err := w.srv.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Cached {
		t.Fatal("query after update served the pre-update entry")
	}
	if r5.Version != ar.Version {
		t.Fatalf("post-update result tagged %d, want %d", r5.Version, ar.Version)
	}
	r6, err := w.srv.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r6.Cached {
		t.Fatal("re-cached entry missed")
	}

	c := w.srv.Counters()
	if c.Hits != 3 || c.Applies != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if got := c.HitRate(); got <= 0 || got >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", got)
	}
}

func TestCoalescing(t *testing.T) {
	// A sluggish emulated network keeps the leader in flight long enough
	// for followers to join deterministically (we poll InFlight).
	w := newWorld(t, Options{MaxInFlight: 4},
		dgs.WithNetwork(dgs.Network{Latency: 10 * time.Millisecond}))
	ctx := context.Background()
	req := QueryRequest{Pattern: w.pattern()}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := w.srv.Query(ctx, req)
		leaderDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for w.srv.Counters().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never entered flight")
		}
		time.Sleep(time.Millisecond)
	}
	const followers = 3
	followerDone := make(chan *QueryResponse, followers)
	for i := 0; i < followers; i++ {
		go func() {
			resp, err := w.srv.Query(ctx, req)
			if err != nil {
				t.Error(err)
				followerDone <- nil
				return
			}
			followerDone <- resp
		}()
	}
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	coalesced := 0
	for i := 0; i < followers; i++ {
		resp := <-followerDone
		if resp == nil {
			t.Fatal("follower failed")
		}
		if resp.Coalesced {
			coalesced++
		} else if !resp.Cached {
			t.Fatal("follower neither coalesced nor cache-hit")
		}
	}
	if coalesced == 0 {
		t.Fatal("no follower coalesced onto the leader's flight")
	}
	if c := w.srv.Counters(); c.Coalesced != int64(coalesced) {
		t.Fatalf("coalesced counter %d, want %d", c.Coalesced, coalesced)
	}
}

// TestCacheSharedAcrossRenamedPatterns: the cache keys on the
// pattern's canonical form, so a request equivalent modulo node
// renaming (and declaration reordering) hits the entry its twin
// filled — and its match sets come back keyed by ITS node names,
// remapped through the canonical permutation.
func TestCacheSharedAcrossRenamedPatterns(t *testing.T) {
	w := newWorld(t, Options{})
	ctx := context.Background()

	r1, err := w.srv.Query(ctx, QueryRequest{Pattern: "node a l0\nnode b l1\nedge a b\nedge b a", IncludeMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first query reported cached")
	}
	// Same structure, renamed and reordered: p plays b's role (label
	// l1), q plays a's (label l0).
	r2, err := w.srv.Query(ctx, QueryRequest{Pattern: "node p l1\nnode q l0\nedge p q\nedge q p", IncludeMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("renamed-equivalent pattern missed the cache")
	}
	if r2.OK != r1.OK || r2.Pairs != r1.Pairs {
		t.Fatalf("equivalent patterns answered differently: %+v vs %+v", r2, r1)
	}
	if !equalIDs(r2.Matches["p"], r1.Matches["b"]) || !equalIDs(r2.Matches["q"], r1.Matches["a"]) {
		t.Fatal("cached result not remapped to the request's node names")
	}
	// The remapped sets agree with evaluating the renamed pattern
	// directly.
	q2, err := dgs.ParsePattern(w.dict, "node p l1\nnode q l0\nedge p q\nedge q p")
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.dep.Query(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < q2.NumNodes(); u++ {
		name := q2.NodeName(dgs.QNode(u))
		if !equalIDs(r2.Matches[name], want.Match.MatchesOf(dgs.QNode(u))) {
			t.Fatalf("node %s: cached-remapped set diverges from direct evaluation", name)
		}
	}
	// A structurally distinct pattern is still its own entry.
	r3, err := w.srv.Query(ctx, QueryRequest{Pattern: "node a l0\nnode b l1\nedge a b"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("distinct pattern falsely shared a cache entry")
	}
	if c := w.srv.Counters(); c.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (only the renamed equivalent)", c.Hits)
	}
}

func equalIDs(a, b []dgs.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExplainRequest: Explain returns the plan without evaluating,
// caching or admitting anything, over both the library and HTTP
// surfaces.
func TestExplainRequest(t *testing.T) {
	w := newWorld(t, Options{})
	ctx := context.Background()

	resp, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern(), Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan == nil {
		t.Fatal("explain response carries no plan")
	}
	if resp.Plan.CanonicalKey == "" || len(resp.Plan.Nodes) != 2 || len(resp.Plan.Edges) != 2 {
		t.Fatalf("plan malformed: %+v", resp.Plan)
	}
	if resp.OK || resp.Pairs != 0 || resp.Cached {
		t.Fatalf("explain response carries evaluation fields: %+v", resp)
	}
	// Nothing was evaluated or cached: the next real query is a miss.
	r2, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern()})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Fatal("explain populated the cache")
	}
	// Absent label surfaces the Empty verdict.
	re, err := w.srv.Query(ctx, QueryRequest{Pattern: "node a zz_never\nnode b l0\nedge a b", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Plan.Empty {
		t.Fatal("absent-label explain not marked Empty")
	}
	// Over HTTP.
	ts := httptest.NewServer(w.srv.Handler())
	defer ts.Close()
	var hr QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Pattern: w.pattern(), Explain: true}, &hr)
	if hr.Plan == nil || hr.Plan.CanonicalKey != resp.Plan.CanonicalKey {
		t.Fatalf("HTTP explain diverges from direct: %+v", hr.Plan)
	}
	// Malformed patterns still classify as the client's fault.
	var reqErr *RequestError
	if _, err := w.srv.Query(ctx, QueryRequest{Pattern: "frob", Explain: true}); err == nil || !asRequestError(err, &reqErr) {
		t.Fatalf("malformed explain: %v, want RequestError", err)
	}
}

// TestHTTPConformance: for every algorithm, the relation served over
// HTTP equals Deployment.Query's, pair for pair.
func TestHTTPConformance(t *testing.T) {
	type tc struct {
		algo    string
		httpReq QueryRequest
		qopts   []dgs.QueryOption
		mk      func(t *testing.T) (*dgs.Dict, *dgs.Graph, *dgs.Partition, *dgs.Pattern)
	}
	cyclic := func(t *testing.T) (*dgs.Dict, *dgs.Graph, *dgs.Partition, *dgs.Pattern) {
		dict := dgs.NewDict()
		g := dgs.GenSynthetic(dict, 400, 1200, 11)
		part, err := dgs.PartitionRandom(g, 4, 11)
		if err != nil {
			t.Fatal(err)
		}
		return dict, g, part, dgs.GenCyclicPatternOver(dict, 4, 6, 4, 12)
	}
	dag := func(t *testing.T) (*dgs.Dict, *dgs.Graph, *dgs.Partition, *dgs.Pattern) {
		dict := dgs.NewDict()
		g := dgs.GenCitation(dict, 400, 900, 13)
		part, err := dgs.PartitionRandom(g, 4, 13)
		if err != nil {
			t.Fatal(err)
		}
		q, err := dgs.GenDAGPattern(dict, 5, 7, 3, 14)
		if err != nil {
			t.Fatal(err)
		}
		return dict, g, part, q
	}
	tree := func(t *testing.T) (*dgs.Dict, *dgs.Graph, *dgs.Partition, *dgs.Pattern) {
		dict := dgs.NewDict()
		g := dgs.GenTree(dict, 400, 15)
		part, err := dgs.PartitionTree(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		return dict, g, part, dgs.GenTreePattern(dict, 4, 16)
	}
	cases := []tc{
		{"dgpm", QueryRequest{Algo: "dgpm"}, []dgs.QueryOption{dgs.WithAlgorithm(dgs.AlgoDGPM)}, cyclic},
		{"dgpmnopt", QueryRequest{Algo: "dgpmnopt"}, []dgs.QueryOption{dgs.WithAlgorithm(dgs.AlgoDGPMNoOpt)}, cyclic},
		{"match", QueryRequest{Algo: "match"}, []dgs.QueryOption{dgs.WithAlgorithm(dgs.AlgoMatch)}, cyclic},
		{"dishhk", QueryRequest{Algo: "dishhk"}, []dgs.QueryOption{dgs.WithAlgorithm(dgs.AlgoDisHHK)}, cyclic},
		{"dmes", QueryRequest{Algo: "dmes"}, []dgs.QueryOption{dgs.WithAlgorithm(dgs.AlgoDMes)}, cyclic},
		{"dgpmd", QueryRequest{Algo: "dgpmd", GraphIsDAG: true},
			[]dgs.QueryOption{dgs.WithAlgorithm(dgs.AlgoDGPMd), dgs.WithGraphIsDAG()}, dag},
		{"dgpmt", QueryRequest{Algo: "dgpmt"}, []dgs.QueryOption{dgs.WithAlgorithm(dgs.AlgoDGPMt)}, tree},
	}
	for _, c := range cases {
		t.Run(c.algo, func(t *testing.T) {
			dict, _, part, q := c.mk(t)
			dep, err := dgs.Deploy(part)
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			srv := New(dep, dict, Options{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			want, err := dep.Query(context.Background(), q, c.qopts...)
			if err != nil {
				t.Fatal(err)
			}
			req := c.httpReq
			req.Pattern = q.String()
			req.IncludeMatches = true
			var resp QueryResponse
			postJSON(t, ts.URL+"/query", req, &resp)

			if resp.OK != want.Match.Ok() || resp.Pairs != want.Match.NumPairs() {
				t.Fatalf("HTTP ok=%v pairs=%d, direct ok=%v pairs=%d",
					resp.OK, resp.Pairs, want.Match.Ok(), want.Match.NumPairs())
			}
			for u := 0; u < q.NumNodes(); u++ {
				name := q.NodeName(dgs.QNode(u))
				got := resp.Matches[name]
				ref := want.Match.MatchesOf(dgs.QNode(u))
				if len(got) != len(ref) {
					t.Fatalf("node %s: HTTP %d matches, direct %d", name, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("node %s: match sets diverge at %d: %d vs %d", name, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

func TestHTTPEndpoints(t *testing.T) {
	w := newWorld(t, Options{})
	ts := httptest.NewServer(w.srv.Handler())
	defer ts.Close()

	// healthz
	var health struct {
		OK           bool   `json:"ok"`
		Build        string `json:"build"`
		Sites        int    `json:"sites"`
		GraphVersion uint64 `json:"graph_version"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if !health.OK || health.Build == "" || health.Sites != 4 {
		t.Fatalf("healthz: %+v", health)
	}

	// query → stats reflects it
	var qr QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Pattern: w.pattern()}, &qr)
	var stats struct {
		Queries int64   `json:"queries"`
		HitRate float64 `json:"hit_rate"`
		Sites   int     `json:"sites"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Queries != 1 || stats.Sites != 4 {
		t.Fatalf("stats: %+v", stats)
	}

	// error mapping: malformed pattern → 400 with code bad_request
	resp, err := http.Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"pattern":"frob x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pattern: status %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "bad_request" {
		t.Fatalf("bad pattern: code %q", eb.Code)
	}

	// apply with an absent edge → 400
	resp2, err := http.Post(ts.URL+"/apply", "application/json",
		bytes.NewReader([]byte(`{"ops":[{"del":true,"v":0,"w":0}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if g := w.part.CurrentGraph(); !contains(g.Succ(0), 0) && resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad apply: status %d, want 400", resp2.StatusCode)
	}

	// GET on a POST endpoint → 405
	resp3, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", resp3.StatusCode)
	}
}

func contains(s []dgs.NodeID, v dgs.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// postJSON posts body and decodes the 200 response into out.
func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		t.Fatalf("POST %s: status %d (%+v)", url, resp.StatusCode, eb)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// firstEdge returns one existing edge of g.
func firstEdge(t *testing.T, g *dgs.Graph) [2]dgs.NodeID {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		if ss := g.Succ(dgs.NodeID(v)); len(ss) > 0 {
			return [2]dgs.NodeID{dgs.NodeID(v), ss[0]}
		}
	}
	t.Fatal("graph has no edges")
	return [2]dgs.NodeID{}
}

// TestCacheLRU exercises the eviction policy directly.
func TestCacheLRU(t *testing.T) {
	c := newCache(2)
	mk := func(v uint64) *dgs.Result { return &dgs.Result{Version: v} }
	c.put("a", mk(0))
	c.put("b", mk(0))
	if _, _, ok := c.get("a", 0); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", mk(0)) // evicts b (a was just touched)
	if _, _, ok := c.get("b", 0); ok {
		t.Fatal("b survived past capacity")
	}
	if _, _, ok := c.get("a", 0); !ok {
		t.Fatal("a evicted despite recency")
	}
	// Stale version is a miss and evicts.
	if _, _, ok := c.get("a", 1); ok {
		t.Fatal("stale entry hit")
	}
	if c.len() != 1 {
		t.Fatalf("len %d after stale eviction, want 1", c.len())
	}
	// A newer result replaces; an older one does not regress the entry.
	c.put("c", mk(5))
	c.put("c", mk(3))
	if _, _, ok := c.get("c", 5); !ok {
		t.Fatal("older put regressed the entry")
	}
}

// TestConcurrentNovelLabels hammers the parse path with patterns whose
// labels have never been interned: dictionary writes (interning) must
// not race with the canonical-key rendering of other requests. Run
// under -race, this is the regression test for key construction
// escaping the parse lock.
func TestConcurrentNovelLabels(t *testing.T) {
	w := newWorld(t, Options{MaxInFlight: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				p := fmt.Sprintf("node a novel_%d_%d\nnode b l1\nedge a b\n", i, j)
				if _, err := w.srv.Query(ctx, QueryRequest{Pattern: p}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestClosedDeploymentIsInternal(t *testing.T) {
	w := newWorld(t, Options{})
	w.dep.Close()
	_, err := w.srv.Apply(context.Background(), ApplyRequest{Ops: []ApplyOp{{Del: true, V: 0, W: 1}}})
	if err == nil {
		t.Fatal("apply on closed deployment succeeded")
	}
	var reqErr *RequestError
	if asRequestError(err, &reqErr) {
		t.Fatalf("closed deployment classified as the client's fault: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	w := newWorld(t, Options{})
	ctx := context.Background()
	if _, err := w.srv.Query(ctx, QueryRequest{}); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := w.srv.Query(ctx, QueryRequest{Pattern: w.pattern(), Algo: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := w.srv.Apply(ctx, ApplyRequest{}); err == nil {
		t.Fatal("empty apply accepted")
	}
	var reqErr *RequestError
	_, err := w.srv.Query(ctx, QueryRequest{Pattern: "node"})
	if err == nil || !asRequestError(err, &reqErr) {
		t.Fatalf("truncated pattern: %v, want RequestError", err)
	}
}

func asRequestError(err error, target **RequestError) bool {
	re, ok := err.(*RequestError)
	if ok {
		*target = re
	}
	return ok
}
