package core

// The stream unit. Collection has one shape: CollectShardProfiles
// measures a whole shard and returns its per-run profiles. A streaming
// consumer (pipeline.Stream) receives whole shards in a fixed order and
// sees each one as consecutive windows of Config.Batch runs, cut from
// the shard's delivered profiles, so the window size decides only when
// a consumer looks, never what a run measures.

import "repro/internal/hpc"

// Window is a run of consecutive observations of a single shard, in run
// order: Profiles[i] is the profile of global run index Start+i of
// class Class. Windows of one shard are consumed in ascending Start
// order and hold Config.Batch runs each (shorter on the shard's tail),
// so the window sequence depends only on the shard plan and the window
// size — never on who executes the shard.
type Window struct {
	// Shard is the shard's plan index.
	Shard int
	// Class is the shard's category label.
	Class int
	// Start is the global run index (within Class) of Profiles[0].
	Start int
	// Profiles are the window's per-run observations: a slice of the
	// shard's own profiles, which no one reuses, so a consumer may keep
	// them.
	Profiles []hpc.Profile
}
