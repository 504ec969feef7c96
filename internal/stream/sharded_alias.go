package stream

// Sharded, ShardedConfig and NewSharded exist only so bench/replay.go
// (the traced replay) keeps compiling; delete this file with it.
type Sharded = Engine

// ShardedConfig ignores Partitions: one Engine serves a site.
type ShardedConfig struct {
	Partitions int
	Engine     Config
}

// NewSharded returns New(cfg.Engine).
func NewSharded(cfg ShardedConfig) *Sharded { return New(cfg.Engine) }
