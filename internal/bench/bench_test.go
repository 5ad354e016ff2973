package bench

import (
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Scale: 0.05, Queries: 1, Seed: 3, NoNetwork: true} }

func TestFiguresComplete(t *testing.T) {
	ids := Figures()
	if len(ids) != 24 { // the paper's 16 panels + upd/part PT+DS pairs + serving QPS/p99 + failover detect/restore
		t.Fatalf("want 24 panels, got %d", len(ids))
	}
	covered := map[string]bool{}
	for _, g := range groups {
		for _, f := range g.figs {
			covered[f] = true
		}
	}
	for _, id := range ids {
		if !covered[id] {
			t.Fatalf("figure %s has no experiment group", id)
		}
	}
	if len(Groups()) != 13 { // 8 figure groups + ablation + updates + partition + serving + failover
		t.Fatalf("want 13 groups, got %d", len(Groups()))
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := RunFigure("9z", tiny()); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := RunGroup("nope", tiny()); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestExp1VaryFShape(t *testing.T) {
	figs, err := RunFigure("6a", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0].ID != "6a" || figs[1].ID != "6b" {
		t.Fatalf("group shape wrong: %v", figs)
	}
	pt, ds := figs[0], figs[1]
	if len(pt.Series) != 5 || len(ds.Series) != 3 {
		t.Fatalf("series counts: PT=%d DS=%d", len(pt.Series), len(ds.Series))
	}
	for _, s := range pt.Series {
		if len(s.Points) != 5 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
	}
	// The headline DS claim: dGPM ships far less than disHHK at |F|=20.
	var dgpmDS, hhkDS float64
	for _, s := range ds.Series {
		last := s.Points[len(s.Points)-1].DSkb
		switch s.Name {
		case "dGPM":
			dgpmDS = last
		case "disHHK":
			hhkDS = last
		}
	}
	if dgpmDS <= 0 && hhkDS <= 0 {
		t.Fatal("no shipment measured at all")
	}
	if dgpmDS >= hhkDS {
		t.Fatalf("dGPM must ship less than disHHK: %f vs %f KB", dgpmDS, hhkDS)
	}
	// Table renders all series.
	tab := pt.Table()
	for _, name := range []string{"dGPM", "disHHK", "dGPMNOpt", "dMes", "Match"} {
		if !strings.Contains(tab, name) {
			t.Fatalf("table missing %s:\n%s", name, tab)
		}
	}
}

func TestExp2VaryDShape(t *testing.T) {
	figs, err := RunFigure("6g", tiny())
	if err != nil {
		t.Fatal(err)
	}
	pt, ds := figs[0], figs[1]
	if len(pt.Series) != 4 || len(ds.Series) != 3 {
		t.Fatalf("series counts: %d %d", len(pt.Series), len(ds.Series))
	}
	if len(pt.Series[0].Points) != 7 { // d = 2..8
		t.Fatalf("points = %d", len(pt.Series[0].Points))
	}
	// dGPMd's DS must not grow with d (Fig. 6(h)): compare first and last
	// within an order of magnitude.
	var first, last float64
	for _, s := range ds.Series {
		if s.Name == "dGPMd" {
			first, last = s.Points[0].DSkb, s.Points[len(s.Points)-1].DSkb
		}
	}
	if last > 10*first+1 {
		t.Fatalf("dGPMd DS grew with d: %f -> %f KB", first, last)
	}
}

func TestExp3VaryGRuns(t *testing.T) {
	figs, err := RunGroup("exp3-G", tiny())
	if err != nil {
		t.Fatal(err)
	}
	ds := figs[1]
	if ds.ID != "6p" {
		t.Fatalf("second figure = %s", ds.ID)
	}
	// dGPM's DS must stay well below disHHK's as |G| grows.
	var dgpm, hhk Series
	for _, s := range ds.Series {
		switch s.Name {
		case "dGPM":
			dgpm = s
		case "disHHK":
			hhk = s
		}
	}
	lastD := dgpm.Points[len(dgpm.Points)-1].DSkb
	lastH := hhk.Points[len(hhk.Points)-1].DSkb
	if lastD >= lastH {
		t.Fatalf("dGPM DS %f must be below disHHK %f at the largest |G|", lastD, lastH)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.norm()
	if c.Scale != 1 || c.Queries != 2 || c.Seed != 1 {
		t.Fatalf("norm: %+v", c)
	}
	if (Config{Scale: 0.001}).scaled(1000) != 16 {
		t.Fatal("scaled floor broken")
	}
}

func TestAblationGroup(t *testing.T) {
	figs, err := RunGroup("ablation", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0].ID != "ablation-PT" {
		t.Fatalf("ablation figures: %v", figs)
	}
	if len(figs[0].Series) != 3 {
		t.Fatalf("want 3 variants, got %d", len(figs[0].Series))
	}
	// The unoptimized variant must be slower than full dGPM at the
	// largest fragment count (the paper reports ~20x; any consistent
	// slowdown validates the ablation wiring at test scale).
	var full, nopt float64
	for _, s := range figs[0].Series {
		last := s.Points[len(s.Points)-1].PTms
		switch s.Name {
		case "dGPM":
			full = last
		case "dGPMNOpt":
			nopt = last
		}
	}
	if nopt <= full {
		t.Logf("note: NOpt (%f ms) not slower than dGPM (%f ms) at tiny scale", nopt, full)
	}
}

func TestUpdatesGroupShape(t *testing.T) {
	figs, err := RunGroup("updates", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0].ID != "upd-pt" || figs[1].ID != "upd-ds" {
		t.Fatalf("updates figures: %v", figs)
	}
	ds := figs[1]
	if len(ds.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(ds.Series))
	}
	var inc, rec float64
	for _, s := range ds.Series {
		total := 0.0
		for _, p := range s.Points {
			total += p.DSkb
		}
		switch s.Name {
		case "dGPM-inc":
			inc = total
		case "recompute":
			rec = total
		}
	}
	// The headline claim: maintaining the standing query ships less than
	// re-answering it from scratch, summed over the whole stream.
	if inc >= rec {
		t.Fatalf("incremental DS %.2fKB not below recompute DS %.2fKB", inc, rec)
	}
}

// TestPartitionSmoke is the CI partition-smoke gate: the partition
// group must run end to end on a tiny graph (both backends), every
// point must carry its fragmentation metadata, and LDG must beat the
// random fixture on |Ef| even at toy scale.
func TestPartitionSmoke(t *testing.T) {
	figs, err := RunGroup("partition", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0].ID != "part-pt" || figs[1].ID != "part-ds" {
		t.Fatalf("group shape wrong: %v", figs)
	}
	pt, ds := figs[0], figs[1]
	if len(pt.Series) != 4 || len(ds.Series) != 6 { // dGPM/dMes × inproc/tcp (+2 wire series on DS)
		t.Fatalf("series counts: PT=%d DS=%d", len(pt.Series), len(ds.Series))
	}
	ef := map[string]int{}
	for _, s := range append(pt.Series, ds.Series...) {
		for _, p := range s.Points {
			if p.Part == nil {
				t.Fatalf("series %s point %s has no partition metadata", s.Name, p.X)
			}
			if p.Part.Strategy != p.X {
				t.Fatalf("series %s point %s attributed to %q", s.Name, p.X, p.Part.Strategy)
			}
			if p.Part.BuildMs < 0 || p.Part.Frags < 8 {
				t.Fatalf("series %s point %s has bogus metadata %+v", s.Name, p.X, p.Part)
			}
			ef[p.X] = p.Part.Ef
		}
	}
	for _, strat := range []string{"random", "blocks", "ldg", "fennel"} {
		if _, ok := ef[strat]; !ok {
			t.Fatalf("strategy %s never measured (have %v)", strat, ef)
		}
	}
	if ef["ldg"] >= ef["random"] {
		t.Fatalf("LDG cut %d not below random cut %d", ef["ldg"], ef["random"])
	}
	t.Logf("Ef: random=%d blocks=%d ldg=%d fennel=%d", ef["random"], ef["blocks"], ef["ldg"], ef["fennel"])
	// Equal balance footing: every strategy within the 10% slack cap the
	// group partitions under, computed from the recorded metadata.
	for _, s := range pt.Series {
		for _, p := range s.Points {
			cap_ := (p.Part.Nodes*11 + 10*p.Part.Frags - 1) / (10 * p.Part.Frags) // ceil(1.1·|V|/|F|)
			if p.Part.MaxNodes == 0 || p.Part.MaxNodes > cap_ {
				t.Fatalf("strategy %s max fragment %d outside slack cap %d (|V|=%d, |F|=%d)",
					p.X, p.Part.MaxNodes, cap_, p.Part.Nodes, p.Part.Frags)
			}
		}
	}
	// The TCP arm must have measured real wire bytes for at least one
	// strategy (tiny graphs can round small, but not all-zero).
	var wire float64
	for _, s := range ds.Series {
		if s.Name == "dGPM-wire/tcp" || s.Name == "dMes-wire/tcp" {
			for _, p := range s.Points {
				wire += p.DSkb
			}
		}
	}
	if wire == 0 {
		t.Fatal("TCP arm measured no wire bytes")
	}
}

// TestServingSmoke runs the serving group in miniature and asserts its
// structural claims: both figures produced, every point carries QPS,
// p99 and fragmentation metadata, and the cache-on arm actually hit its
// cache on the skewed workload.
func TestServingSmoke(t *testing.T) {
	figs, err := RunGroup("serving", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || figs[0].ID != "srv-qps" || figs[1].ID != "srv-p99" {
		t.Fatalf("serving group shape wrong: %v", figs)
	}
	qps := figs[0]
	if len(qps.Series) != 2 {
		t.Fatalf("want cache-on/cache-off series, got %d", len(qps.Series))
	}
	for _, s := range qps.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points, want skewed+uniform", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.QPS <= 0 || p.P99ms <= 0 {
				t.Fatalf("series %s point %s lacks throughput/latency: %+v", s.Name, p.X, p)
			}
			if p.Part == nil || p.Part.Frags == 0 {
				t.Fatalf("series %s point %s lacks fragmentation metadata", s.Name, p.X)
			}
		}
	}
	for _, s := range qps.Series {
		for _, p := range s.Points {
			switch s.Name {
			case "cache-on":
				if p.X == "skewed" && p.HitRate <= 0 {
					t.Fatalf("cache-on skewed arm never hit the cache: %+v", p)
				}
			case "cache-off":
				if p.HitRate != 0 {
					t.Fatalf("cache-off arm reports hit rate %v", p.HitRate)
				}
			}
		}
	}
}
