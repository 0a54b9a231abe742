package experiments

import (
	"fmt"
	"testing"

	"hydra/internal/obs"
	"hydra/internal/sim"
)

// TestSaturationTraceReconciles runs one x7 cell with the recorder on and
// checks the trace against the channel's own accounting: per-message
// instants must agree exactly with channel.Stats (the acceptance contract
// for the -trace flag), and the traced row must match an untraced run of
// the same seed bit-for-bit — recording must not perturb the simulation.
func TestSaturationTraceReconciles(t *testing.T) {
	const (
		seed     = 7
		duration = 200 * sim.Millisecond
		rate     = 5_000
		batch    = 8
		coalesce = 100 * sim.Microsecond
	)
	row, tr, err := RunSaturationCell(seed, duration, rate, batch, coalesce, &obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("traced run returned no tracer")
	}
	if n := tr.Dropped(); n != 0 {
		t.Fatalf("ring overflowed: %d records dropped", n)
	}

	counts := map[string]uint64{}
	for _, rec := range tr.Merged() {
		counts[rec.Name]++
	}
	for name, want := range map[string]uint64{
		"chan.send":      row.Sent,
		"chan.delivered": row.Delivered,
		"chan.irq":       row.Interrupts,
		"chan.coalesce":  row.CoalesceFlushes,
	} {
		if counts[name] != want {
			t.Errorf("%s: %d trace records, stats say %d", name, counts[name], want)
		}
	}
	if got := counts["chan.batch"] + counts["chan.coalesce"]; got != row.Batches {
		t.Errorf("chan.batch+chan.coalesce: %d trace records, stats say %d", got, row.Batches)
	}

	untraced, _, err := RunSaturationCell(seed, duration, rate, batch, coalesce, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "traced vs untraced rows", row, untraced)
}

// TestAutoscaleTraceDeterminism extends the traced-reconcile contract to
// the live-mutation surface: the elastic X10 cell runs with the recorder
// on every engine, and the CatMutate records that break down the mutation
// windows (cluster mutations, the hot-swap span, the controller's scale
// events), which hydra-trace categorizes, must match the row. It runs at
// the bench's seed and at one other; TestGoldenBehaviour pins the row's
// metrics at the bench's seed.
func TestAutoscaleTraceDeterminism(t *testing.T) {
	for _, seed := range []int64{DefaultSeed, 13} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { autoscaleTraceDeterminism(t, seed) })
	}
}

func autoscaleTraceDeterminism(t *testing.T, seed int64) {
	row, tr, err := RunX10Cell(seed, true, &obs.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Mutation accounting must be on the trace surface, all under
	// CatMutate so hydra-trace's category breakdown isolates the windows.
	counts := map[string]int{}
	for _, rec := range tr.Merged() {
		if rec.Cat == obs.CatMutate {
			counts[rec.Name]++
		}
	}
	if counts["mutate.shard.swap"] != 1 {
		t.Errorf("mutate.shard.swap records = %d, want 1", counts["mutate.shard.swap"])
	}
	if counts["mutate.swap"] != 1 {
		t.Errorf("mutate.swap records = %d, want 1", counts["mutate.swap"])
	}
	if got := counts["mutate.shard.add"]; got != row.ScaleUps {
		t.Errorf("mutate.shard.add records = %d, want %d (one per scale-up)", got, row.ScaleUps)
	}
	if got := counts["mutate.shard.remove"]; got != row.ScaleDowns {
		t.Errorf("mutate.shard.remove records = %d, want %d (one per scale-down)", got, row.ScaleDowns)
	}
	if got := counts["scale.up"] + counts["scale.down"]; got != row.ScaleUps+row.ScaleDowns {
		t.Errorf("scale.* records = %d, want %d", got, row.ScaleUps+row.ScaleDowns)
	}
	if counts["mutate.cluster"] == 0 {
		t.Error("no mutate.cluster spans in an elastic run")
	}
}
