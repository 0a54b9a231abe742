package experiments

import (
	"testing"

	"hydra/internal/sim"
)

// TestClusterParallelMatchesSerial is the conservative-window gate for
// the cluster layer: the windowed X9 cell must produce bit-identical
// rows whether window bodies run on one goroutine or many. Run it with
// -race: it is also the data-race coverage for per-host engines
// interacting through bridges.
func TestClusterParallelMatchesSerial(t *testing.T) {
	const dur = sim.Second
	serial, _, err := RunClusterCellParallel(DefaultSeed, dur, 4, X9Shards, 1, x9Link(), nil)
	if err != nil {
		t.Fatalf("serial windows: %v", err)
	}
	parallel, _, err := RunClusterCellParallel(DefaultSeed, dur, 4, X9Shards, 8, x9Link(), nil)
	if err != nil {
		t.Fatalf("parallel windows: %v", err)
	}
	if *serial != *parallel {
		t.Fatalf("windowed cell diverged:\n 1 worker: %+v\n 8 workers: %+v", serial, parallel)
	}
	if serial.Total == 0 || serial.MinShard == 0 {
		t.Fatalf("windowed cell has idle shards: %+v", serial)
	}
	if serial.CrossBridges == 0 || serial.Bridged == 0 {
		t.Fatalf("windowed cell bridged nothing: %+v", serial)
	}
}

// TestClusterParallelScalesShards sanity-checks that the windowed cell
// still shows the X9 shape: 4 hosts beat 1 host (same per-host-engine
// mode on both sides, so the comparison is apples to apples).
func TestClusterParallelScalesShards(t *testing.T) {
	const dur = sim.Second
	one, _, err := RunClusterCellParallel(DefaultSeed, dur, 1, X9Shards, 2, x9Link(), nil)
	if err != nil {
		t.Fatalf("1 host: %v", err)
	}
	four, _, err := RunClusterCellParallel(DefaultSeed, dur, 4, X9Shards, 2, x9Link(), nil)
	if err != nil {
		t.Fatalf("4 hosts: %v", err)
	}
	if four.Total <= 2*one.Total {
		t.Fatalf("4-host windowed total %d not >2× 1-host %d", four.Total, one.Total)
	}
}
