package dgs

// An extension beyond the paper's §4–§5 algorithms: a partition-bounded
// distributed acyclicity check that discharges dGPMd's "DAG G"
// precondition without assembling the graph. (Incremental maintenance
// under edge deletions, after [13], is Deployment.Watch.)

import "dgs/internal/dagcheck"

// IsDAGDistributed decides the data graph's acyclicity with the
// partition-bounded boundary-summary protocol: per-site local cycle check
// plus in-node→virtual reachability pairs, assembled at the coordinator.
// Data shipment is bounded by Σ|Fi.I|·|Fi.O|, independent of |G|.
func IsDAGDistributed(part *Partition) (bool, Stats) {
	ok, st := dagcheck.IsDAG(part.fr)
	return ok, fromCluster(st)
}
