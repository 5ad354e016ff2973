package dgpm

// Session-spec plumbing: the algorithm names and config encoding that
// let a site — in this process or in a remote dgsd daemon — instantiate
// the per-site handlers of dGPM, dGPMd and dGPMt from a
// cluster.SessionSpec. The registry entries live here so that importing
// the package (as the driver and cmd/dgsd both do) is all it takes to
// serve the three algorithms.

import (
	"encoding/binary"
	"fmt"
	"math"

	"dgs/internal/cluster"
	"dgs/internal/partition"
	"dgs/internal/pattern"
)

const (
	// Algo is the registered name of the dGPM query/maintenance site
	// (spec.Config carries an EncodeConfig blob).
	Algo = "dgpm"
	// AlgoDAG is the registered name of the dGPMd site (§5.1). The spec
	// carries only the (DAG) query; each site derives the rank schedule
	// from it.
	AlgoDAG = "dgpmd"
	// AlgoTree is the registered name of the dGPMt site (§5.2). The spec
	// carries only the query.
	AlgoTree = "dgpmt"
	// AlgoUpdate is the registered name of the fragment-update site
	// (query-less; Delta payloads carry the batch).
	AlgoUpdate = "update"
)

const (
	cfgIncremental = 1 << 0
	cfgPush        = 1 << 1
)

// EncodeConfig renders cfg for SessionSpec.Config: one flag byte plus
// the IEEE-754 bits of θ.
func EncodeConfig(cfg Config) []byte {
	out := make([]byte, 9)
	if cfg.Incremental {
		out[0] |= cfgIncremental
	}
	if cfg.Push {
		out[0] |= cfgPush
	}
	binary.LittleEndian.PutUint64(out[1:], math.Float64bits(cfg.Theta))
	return out
}

// DecodeConfig parses an EncodeConfig blob. A NaN θ is refused: no
// benefit compares with it, so it would mean "push everything" without
// saying so.
func DecodeConfig(b []byte) (Config, error) {
	if len(b) != 9 {
		return Config{}, fmt.Errorf("dgpm: config must be 9 bytes, got %d", len(b))
	}
	if b[0]&^(cfgIncremental|cfgPush) != 0 {
		return Config{}, fmt.Errorf("dgpm: unknown config flags %#x", b[0])
	}
	theta := math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))
	if math.IsNaN(theta) {
		return Config{}, fmt.Errorf("dgpm: push threshold θ is NaN")
	}
	return Config{
		Incremental: b[0]&cfgIncremental != 0,
		Push:        b[0]&cfgPush != 0,
		Theta:       theta,
	}, nil
}

// The three query algorithms share one site and one prepared state per
// pattern (preparedKey). dGPMd and dGPMt sites test no push, but file
// their engines with the verdict DefaultConfig's test gives, so a dGPM
// session restoring one sends the filed plans instead of testing again.
func init() {
	cluster.RegisterAlgorithm(Algo, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		cfg, err := DecodeConfig(spec.Config)
		if err != nil {
			return nil, err
		}
		return newSite(q, frag, assign, cfg, preparedKey(spec.Query), releaseExchange), nil
	})
	cluster.RegisterAlgorithm(AlgoDAG, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		ri, ok := pattern.NewRankInfo(q)
		if !ok {
			return nil, fmt.Errorf("dgpm: dGPMd spec query is cyclic")
		}
		s := newSite(q, frag, assign, DefaultConfig(), preparedKey(spec.Query), releaseRanks)
		s.waves = &rankWaves{ri: ri}
		return s, nil
	})
	cluster.RegisterAlgorithm(AlgoTree, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		q, err := pattern.DecodeBinary(spec.Query)
		if err != nil {
			return nil, err
		}
		return newSite(q, frag, assign, DefaultConfig(), preparedKey(spec.Query), releaseUpload), nil
	})
	cluster.RegisterAlgorithm(AlgoUpdate, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		return &updSite{frag: frag, assign: assign}, nil
	})
}

// sessionSpec is the one place a dGPM session spec is built: the query
// and config blobs.
func sessionSpec(q *pattern.Pattern, cfg Config, traceID uint64) cluster.SessionSpec {
	return cluster.SessionSpec{Algo: Algo, Query: pattern.EncodeBinary(q), Config: EncodeConfig(cfg), TraceID: traceID}
}
