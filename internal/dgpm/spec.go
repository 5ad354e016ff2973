package dgpm

// Session-spec plumbing: the algorithm names and config encoding that
// let a site — in this process or in a remote dgsd daemon — instantiate
// dGPM's per-site handlers from a cluster.SessionSpec. The registry
// entries live here so that importing the package (as the driver and
// cmd/dgsd both do) is all it takes to serve the algorithm.

import (
	"encoding/binary"
	"fmt"
	"math"

	"dgs/internal/cluster"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
)

const (
	// Algo is the registered name of the dGPM query/maintenance site
	// (spec.Config carries an EncodeConfig blob).
	Algo = "dgpm"
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

// DecodeConfig parses an EncodeConfig blob.
func DecodeConfig(b []byte) (Config, error) {
	if len(b) != 9 {
		return Config{}, fmt.Errorf("dgpm: config must be 9 bytes, got %d", len(b))
	}
	if b[0]&^(cfgIncremental|cfgPush) != 0 {
		return Config{}, fmt.Errorf("dgpm: unknown config flags %#x", b[0])
	}
	return Config{
		Incremental: b[0]&cfgIncremental != 0,
		Push:        b[0]&cfgPush != 0,
		Theta:       math.Float64frombits(binary.LittleEndian.Uint64(b[1:])),
	}, nil
}

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
		pl, err := decodeSpecPlan(spec, q)
		if err != nil {
			return nil, err
		}
		return newSite(q, frag, assign, cfg, pl, preparedKey(spec.Query, spec.Plan)), nil
	})
	cluster.RegisterAlgorithm(AlgoUpdate, func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
		return &updSite{frag: frag, assign: assign}, nil
	})
}

// sessionSpec is the one place a dGPM session spec is built: the query
// and config blobs, and pl's orders when there is a plan (nil leaves the
// plan blob empty — the identity order).
func sessionSpec(q *pattern.Pattern, cfg Config, pl *plan.Plan, traceID uint64) cluster.SessionSpec {
	spec := cluster.SessionSpec{Algo: Algo, Query: pattern.EncodeBinary(q), Config: EncodeConfig(cfg), TraceID: traceID}
	if pl != nil {
		spec.Plan = pl.Encode()
	}
	return spec
}

// decodeSpecPlan extracts and validates the optional evaluation plan of
// a session spec: the orders must fit the decoded pattern. A spec with
// an empty plan blob yields nil, the identity order.
func decodeSpecPlan(spec cluster.SessionSpec, q *pattern.Pattern) (*plan.Plan, error) {
	if len(spec.Plan) == 0 {
		return nil, nil
	}
	pl, err := plan.Decode(spec.Plan)
	if err != nil {
		return nil, err
	}
	if err := pl.Fits(q); err != nil {
		return nil, err
	}
	return pl, nil
}
