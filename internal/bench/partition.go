package bench

// The partition experiment (beyond the paper's figures): fragmentation
// quality as a measured quantity. Every strategy partitions the same
// 256-site reference workload at the same ±10% balance slack; the group
// records what the planner paid (build time) and what it bought —
// |Vf|/|Ef| boundary sizes, then dGPM/dMes response time, payload data
// shipment, and, on the loopback-TCP arm, the wire bytes a real socket
// actually carried. This is the repro point for the claim that layout
// choice dominates distributed query cost: the paper's bounds are
// parameterized by |Ef|, so a partitioner that halves the cut should
// halve the measured traffic.

import (
	"context"
	"fmt"
	"net"

	"dgs"
	"dgs/internal/transport/tcpnet"
)

// startLoopbackServers starts n tcpnet site servers on loopback and
// returns their addresses plus a shutdown func.
func startLoopbackServers(n int) (addrs []string, stop func(), err error) {
	listeners := make([]net.Listener, 0, n)
	stop = func() {
		for _, lis := range listeners {
			lis.Close()
		}
	}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &tcpnet.Server{}
		go srv.Serve(lis)
		listeners = append(listeners, lis)
		addrs = append(addrs, lis.Addr().String())
	}
	return addrs, stop, nil
}

// partitionFrags is the reference fragment count; tiny test scales
// shrink it so the smoke run stays fast.
func (c Config) partitionFrags() int {
	nf := int(256 * c.Scale)
	if nf < 8 {
		nf = 8
	}
	if nf > 256 {
		nf = 256
	}
	return nf
}

// partitionStrategies is the sweep: the experiment fixture (random) vs
// the locality baseline (blocks) vs the quality-first streaming
// planners, unless benchfig -part restricts it.
func (c Config) partitionStrategies() []string {
	if len(c.Partitioners) > 0 {
		return c.Partitioners
	}
	return []string{"random", "blocks", "ldg", "fennel"}
}

// partitionExp produces the "part-pt"/"part-ds" panels: per strategy,
// dGPM and dMes PT/DS on the in-process and loopback-TCP backends, plus
// the TCP arm's measured wire bytes. Every point carries the partition
// metadata (strategy, |Vf|, |Ef|, balance, build ms). Unlike the
// Fig. 6 sweeps, deployments run without the emulated EC2 link model:
// the TCP arm pays real socket latency, and strategy-vs-strategy
// comparisons stay within one arm, so an emulated cost on the
// in-process arm would only blur the backend contrast.
func partitionExp(cfg Config) ([]*Figure, error) {
	ctx := context.Background()
	dict := dgs.NewDict()
	g := dgs.GenWeb(dict, cfg.scaled(webNV/4), cfg.scaled(webNE/4), cfg.Seed)
	nf := cfg.partitionFrags()
	queries := make([]*dgs.Pattern, cfg.Queries)
	for i := range queries {
		queries[i] = dgs.GenCyclicPatternOver(dict, 5, 10, 4, cfg.Seed+int64(i)*17)
	}

	// Two site servers on loopback, reused across strategies.
	addrs, stopServers, err := startLoopbackServers(2)
	if err != nil {
		return nil, err
	}
	defer stopServers()

	type arm struct {
		name string
		opts []dgs.DeployOption
	}
	arms := []arm{
		{"inproc", nil},
		{"tcp", []dgs.DeployOption{dgs.WithRemoteSites(addrs...)}},
	}
	algos := []dgs.Algorithm{dgs.AlgoDGPM, dgs.AlgoDMes}

	title := fmt.Sprintf("partitioner quality, %d sites", nf)
	pt := &Figure{ID: "part-pt", Title: title, XLabel: "strategy", YLabel: "PT (ms)"}
	ds := &Figure{ID: "part-ds", Title: title, XLabel: "strategy", YLabel: "DS (KB)"}
	ptSeries := map[string]*Series{}
	dsSeries := map[string]*Series{}
	wireSeries := map[string]*Series{}
	for _, al := range algos {
		for _, a := range arms {
			key := al.String() + "/" + a.name
			ptSeries[key] = &Series{Name: key}
			dsSeries[key] = &Series{Name: key}
		}
		wireSeries[al.String()] = &Series{Name: al.String() + "-wire/tcp"}
	}

	for _, strat := range cfg.partitionStrategies() {
		part, err := dgs.PartitionWith(g, strat, nf,
			dgs.WithPartitionSeed(cfg.Seed), dgs.WithBalanceSlack(0.10))
		if err != nil {
			return nil, fmt.Errorf("partition %s: %w", strat, err)
		}
		meta := partMeta(part)
		for _, a := range arms {
			dep, err := dgs.Deploy(part, a.opts...)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", strat, a.name, err)
			}
			for _, al := range algos {
				m := measurement{part: meta}
				var wire int64
				for _, q := range queries {
					res, err := dep.Query(ctx, q, dgs.WithAlgorithm(al))
					if err != nil {
						dep.Close()
						return nil, fmt.Errorf("%s/%s/%s: %w", strat, a.name, al, err)
					}
					m.add(res.Stats)
					wire += res.Stats.WireBytes
				}
				key := al.String() + "/" + a.name
				ptSeries[key].Points = append(ptSeries[key].Points, m.point(strat))
				dsSeries[key].Points = append(dsSeries[key].Points, m.point(strat))
				if a.name == "tcp" {
					wireSeries[al.String()].Points = append(wireSeries[al.String()].Points,
						Point{X: strat, DSkb: float64(wire) / 1024 / float64(len(queries)), Part: meta})
				}
			}
			dep.Close()
		}
	}
	for _, al := range algos {
		for _, a := range arms {
			key := al.String() + "/" + a.name
			pt.Series = append(pt.Series, *ptSeries[key])
			ds.Series = append(ds.Series, *dsSeries[key])
		}
		ds.Series = append(ds.Series, *wireSeries[al.String()])
	}
	return []*Figure{pt, ds}, nil
}
