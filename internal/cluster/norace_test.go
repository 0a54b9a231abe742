//go:build !race

package cluster

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
