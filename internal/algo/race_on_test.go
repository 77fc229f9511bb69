//go:build race

package algo

// raceEnabled: the race detector defeats sync.Pool reuse, so allocation
// pins hold without it only.
const raceEnabled = true
