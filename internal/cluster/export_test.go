package cluster

// HoldLastSeed is the deterministic hold of the fault-injection soaks: every
// worker built from cfg — in this process or a worker process started with
// it, first incarnation or replacement — seeds all but its last vertex, then
// waits for release to close. Until then the job has work pending on every
// slot and cannot finish under the test, whatever the engine's speed.
func HoldLastSeed(cfg *Config, release <-chan struct{}) { cfg.seedHold = release }

// DenseDirectory reports which arm the session's vertex directory took for
// the resident graph: the ID-indexed array, or the hash tables.
func (s *Session) DenseDirectory() bool { return s.tables.dir.dense() }

// dense reports which arm the directory took.
func (d *directory) dense() bool { return d.slots != nil }
