//go:build race

package mpeg

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
