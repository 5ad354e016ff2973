package baseline

import (
	"context"
	"fmt"

	"dgs/internal/cluster"
	"dgs/internal/dgpm"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/simulation"
)

// run evaluates one query with the named algorithm — a baseline, or
// push-free dGPM as the comparison point — on a throwaway in-process
// cluster with a free network. Background context and a private
// cluster: an error is a bug.
func run(algo string, q *pattern.Pattern, fr *partition.Fragmentation) (*simulation.Match, cluster.Stats) {
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	ctx := context.Background()
	var (
		m   *simulation.Match
		st  cluster.Stats
		err error
	)
	switch algo {
	case AlgoMatch:
		m, st, _, err = EvalMatch(ctx, c, q, 0)
	case AlgoDisHHK:
		m, st, _, err = EvalDisHHK(ctx, c, q, 0)
	case AlgoDMes:
		m, st, _, err = EvalDMes(ctx, c, q, fr, 0)
	case dgpm.Algo:
		m, st, _, err = dgpm.Eval(ctx, c, q, fr, dgpm.Config{Incremental: true}, nil, 0)
	default:
		err = fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		panic(err)
	}
	return m, st
}
