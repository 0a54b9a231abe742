package experiments

import "testing"

// TestX10StaticIsFlat pins the baseline cell's shape: the static policy
// never mutates, so its trajectory is a flat line at the peak count.
func TestX10StaticIsFlat(t *testing.T) {
	row, _, err := RunX10Cell(DefaultSeed, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row.ScaleUps != 0 || row.ScaleDowns != 0 || row.SwapWindowMS != 0 {
		t.Fatalf("static cell mutated: %+v", row)
	}
	if row.PeakShards != X10MaxShards || row.FinalShards != X10MaxShards {
		t.Fatalf("static cell not flat at %d shards: %+v", X10MaxShards, row)
	}
	if row.ShardEpochs != X10MaxShards*row.Epochs {
		t.Fatalf("static shard·epochs %d, want %d", row.ShardEpochs, X10MaxShards*row.Epochs)
	}
}
