package cluster

// ReadShardArtifact exposes the artifact fast path to the external
// test package, which needs serve to produce real artifacts.
var ReadShardArtifact = readShardArtifact

// PlanShards is the planner with journal keys, for the tests.
func PlanShards(grid GainGrid, size int) (fingerprint string, points []GainPoint, shards []Shard, err error) {
	return planShards(grid, size, true)
}
