//go:build race

package device

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
