//go:build race

package cluster

// raceEnabled: the race detector changes what allocates (it defeats
// sync.Pool reuse, among others), so allocation pins hold without it only.
const raceEnabled = true
