package cluster

// ReadShardArtifact exposes the artifact fast path to the external
// test package, which needs serve to produce real artifacts.
var ReadShardArtifact = readShardArtifact
