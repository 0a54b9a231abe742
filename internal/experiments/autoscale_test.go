package experiments

import "testing"

// TestX10AutoscaleShape runs the full X10 comparison — static vs elastic
// provisioning over the same ramp, with the mid-peak hot-swap — and
// asserts the acceptance shape: zero lost messages under both policies,
// a real up-and-down trajectory, a measured swap window with held/replayed
// client traffic, and a meaningful capacity saving. RunAutoscale itself
// verifies the elastic cell is bit-identical for 1 and N window workers.
func TestX10AutoscaleShape(t *testing.T) {
	res, err := RunAutoscale(DefaultSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAutoscaleShape(res); err != nil {
		t.Fatal(err)
	}
	if res.Auto.Offered == 0 || res.Auto.Delivered != res.Auto.Offered {
		t.Fatalf("elastic ledger: %+v", res.Auto)
	}
	// The autoscaled run must never out-provision the static cell.
	if res.Auto.ShardEpochs >= res.Static.ShardEpochs {
		t.Fatalf("autoscaled shard·epochs %d not below static %d",
			res.Auto.ShardEpochs, res.Static.ShardEpochs)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

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
