package treesim

import (
	"context"

	"dgs/internal/cluster"
	"dgs/internal/dgpm"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
)

// run evaluates one dGPMt query on a throwaway in-process cluster with
// a free network.
func run(q *pattern.Pattern, fr *partition.Fragmentation) (*simulation.Match, cluster.Stats, error) {
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	m, st, _, err := Eval(context.Background(), c, q, fr, 0)
	return m, st, err
}

// runDGPM is run for the general dGPM algorithm, the cross-check.
func runDGPM(q *pattern.Pattern, fr *partition.Fragmentation) (*simulation.Match, error) {
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	m, _, _, err := dgpm.Eval(context.Background(), c, q, fr, dgpm.DefaultConfig(), 0)
	return m, err
}
