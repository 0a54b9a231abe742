package experiments

import (
	"testing"

	"hydra/internal/cluster"
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
	if *untraced != *row {
		t.Errorf("tracing perturbed the run:\n  traced   %+v\n  untraced %+v", *row, *untraced)
	}
}

// TestClusterTraceDeterminism runs the x9 EnginePerHost cell serially
// (workers=1) and in parallel (workers=4) with the recorder on every
// engine and requires the merged traces to be identical record for
// record — the determinism contract of the sharded recorder. The CI
// -race run covers the same path for data races.
func TestClusterTraceDeterminism(t *testing.T) {
	const (
		seed     = 11
		duration = 100 * sim.Millisecond
		hosts    = 4
		shards   = 8
	)
	link := cluster.Link{Latency: 50 * sim.Microsecond, BytesPerSec: 1 << 30}
	run := func(workers int) (*ClusterRow, []obs.Record) {
		row, tr, err := RunClusterCellParallel(seed, duration, hosts, shards, workers, link, &obs.Config{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := tr.Dropped(); n != 0 {
			t.Fatalf("workers=%d: ring overflowed: %d records dropped", workers, n)
		}
		return row, tr.Merged()
	}
	serialRow, serial := run(1)
	parallelRow, parallel := run(4)

	if *serialRow != *parallelRow {
		t.Errorf("rows diverge:\n  serial   %+v\n  parallel %+v", *serialRow, *parallelRow)
	}
	if len(serial) == 0 {
		t.Fatal("serial trace is empty")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("trace length diverges: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("record %d diverges:\n  serial   %+v\n  parallel %+v", i, serial[i], parallel[i])
		}
	}
	// The cell crosses hosts, so the trace must show bridge traffic.
	var hops int
	for _, rec := range serial {
		if rec.Name == "bridge.rx" {
			hops++
		}
	}
	if hops == 0 {
		t.Error("no bridge.rx records in a multi-host trace")
	}
}

// TestAutoscaleTraceDeterminism extends the traced-reconcile contract to
// the live-mutation surface: the elastic X10 cell runs with the recorder
// on every engine, serially then in parallel, and the merged streams must
// be identical record for record — including the CatMutate records that
// break down the mutation windows (cluster mutations, the hot-swap span,
// the controller's scale events), which hydra-trace categorizes.
func TestAutoscaleTraceDeterminism(t *testing.T) {
	run := func(workers int) (*X10Row, []obs.Record) {
		row, tr, err := RunX10Cell(13, workers, true, &obs.Config{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if tr == nil {
			t.Fatal("traced run returned no tracer")
		}
		return row, tr.Merged()
	}
	serialRow, serial := run(1)
	parallelRow, parallel := run(4)

	if *serialRow != *parallelRow {
		t.Errorf("rows diverge:\n  serial   %+v\n  parallel %+v", *serialRow, *parallelRow)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("trace length diverges: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("record %d diverges:\n  serial   %+v\n  parallel %+v", i, serial[i], parallel[i])
		}
	}

	// Mutation accounting must be on the trace surface, all under
	// CatMutate so hydra-trace's category breakdown isolates the windows.
	counts := map[string]int{}
	for _, rec := range serial {
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
	if got := counts["mutate.shard.add"]; got != serialRow.ScaleUps {
		t.Errorf("mutate.shard.add records = %d, want %d (one per scale-up)", got, serialRow.ScaleUps)
	}
	if got := counts["mutate.shard.remove"]; got != serialRow.ScaleDowns {
		t.Errorf("mutate.shard.remove records = %d, want %d (one per scale-down)", got, serialRow.ScaleDowns)
	}
	if got := counts["scale.up"] + counts["scale.down"]; got != serialRow.ScaleUps+serialRow.ScaleDowns {
		t.Errorf("scale.* records = %d, want %d", got, serialRow.ScaleUps+serialRow.ScaleDowns)
	}
	if counts["mutate.cluster"] == 0 {
		t.Error("no mutate.cluster spans in an elastic run")
	}
}
