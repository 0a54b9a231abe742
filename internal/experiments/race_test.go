//go:build race

package experiments

// raceEnabled reports a -race build, whose instrumentation slows
// single-goroutine solvers it has nothing to check in.
const raceEnabled = true
