package dgpm

import (
	"context"

	"dgs/internal/cluster"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
)

// run evaluates one query on a throwaway in-process cluster with a free
// network. Background context and a private cluster: an error is a bug.
func run(q *pattern.Pattern, fr *partition.Fragmentation, cfg Config) (*simulation.Match, cluster.Stats) {
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	m, st, _, err := Eval(context.Background(), c, q, fr, cfg, 0)
	if err != nil {
		panic(err)
	}
	return m, st
}
