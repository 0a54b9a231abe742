//go:build race

package syscall

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
