package core

// Deprecated names kept so that existing callers still compile. Every
// simulation runs on one goroutine with one event queue; none of these
// values changes what runs.

// PipelineMode once selected a producer/consumer split of a co-simulation.
//
// Deprecated: ignored. See SessionConfig.Pipeline.
type PipelineMode int

// Pipeline modes.
//
// Deprecated: ignored. See SessionConfig.Pipeline.
const (
	PipelineAuto PipelineMode = iota
	PipelineOff
	PipelineOn
)

// ShardMode once selected sharded per-domain event queues for one guest.
//
// Deprecated: ignored. See GuestConfig.Shards.
type ShardMode int

// Shard modes.
//
// Deprecated: ignored. See GuestConfig.Shards.
const (
	ShardAuto    ShardMode = -1
	ShardDefault ShardMode = 0
	ShardSerial  ShardMode = 1
)
