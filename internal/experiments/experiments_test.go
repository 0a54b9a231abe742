package experiments

import (
	"reflect"
	"strings"
	"testing"

	"hydra/internal/sim"
	"hydra/internal/testbed"
	"hydra/internal/tivopc"
)

// A worker-pool sweep must report numbers bit-identical to the serial
// loop: parallelism may only change the wall clock.
func TestJitterSweepMatchesSerial(t *testing.T) {
	seeds := []int64{DefaultSeed, DefaultSeed + 1, DefaultSeed + 2}
	const dur = 10 * sim.Second

	serial, err := RunJitterSweep(tivopc.SimpleServer, seeds, dur, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunJitterSweep(tivopc.SimpleServer, seeds, dur, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if serial.PerSeed[i] != parallel.PerSeed[i] {
			t.Fatalf("seed %d: serial %+v != parallel %+v", seeds[i], serial.PerSeed[i], parallel.PerSeed[i])
		}
	}
	if serial.Pooled != parallel.Pooled {
		t.Fatalf("pooled stats differ: %+v vs %+v", serial.Pooled, parallel.Pooled)
	}
	if serial.Pooled.N == 0 {
		t.Fatal("sweep produced no samples")
	}
	if !strings.Contains(parallel.Render(), "pooled") {
		t.Fatal("render broken")
	}
}

// A serial/parallel mismatch must name the first differing field and both
// values, not dump the two results whole.
func TestRunTwinNamesFirstDivergence(t *testing.T) {
	type row struct {
		Scenario string
		P99LatUS float64
	}
	type result struct {
		Rows   []row
		Counts map[string]int
	}
	cases := []struct {
		mutate func(*result)
		want   string
	}{
		{func(r *result) { r.Rows[2].P99LatUS = 1850.01 }, "differ at Rows[2].P99LatUS: 1849.86 vs 1850.01"},
		{func(r *result) { r.Rows = r.Rows[:2] }, "differ at len(Rows): 3 vs 2"},
		{func(r *result) { r.Counts["b"] = 3 }, "differ at Counts[b]: missing vs 3"},
	}
	for _, c := range cases {
		_, err := RunTwin("twin", 2, func(workers int) (*result, error) {
			r := &result{
				Rows:   []row{{"a", 1}, {"b", 2}, {"c", 1849.86}},
				Counts: map[string]int{"a": 1},
			}
			if workers > 1 {
				c.mutate(r)
			}
			return r, nil
		})
		if err == nil || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("err = %v, want suffix %q", err, c.want)
		}
	}
}

func TestFigure1(t *testing.T) {
	f := RunFigure1()
	if len(f.TX) != len(f.RX) || len(f.TX) == 0 {
		t.Fatal("empty series")
	}
	out := f.Render()
	if !strings.Contains(out, "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestTable2Figure9Shape(t *testing.T) {
	r, err := RunTable2Figure9(DefaultSeed, QuickDuration)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckJitterShape(r); err != nil {
		t.Fatal(err)
	}
	t2 := r.RenderTable2()
	if !strings.Contains(t2, "Offloaded Server") {
		t.Fatalf("table missing rows:\n%s", t2)
	}
	f9 := r.RenderFigure9()
	if !strings.Contains(f9, "CDF") || !strings.Contains(f9, "#") {
		t.Fatalf("figure render broken:\n%s", f9)
	}
}

func TestTable3Figure10Shape(t *testing.T) {
	r, err := RunTable3Figure10(DefaultSeed, QuickDuration)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ServerLoadRow{}
	for _, row := range r.Rows {
		byName[row.Scenario] = row
	}
	if !(byName["Simple Server"].CPU.Mean > byName["Sendfile Server"].CPU.Mean &&
		byName["Sendfile Server"].CPU.Mean > byName["Offloaded Server"].CPU.Mean) {
		t.Fatalf("CPU ordering broken: %+v", r.Rows)
	}
	if byName["Simple Server"].L2Slowdown <= 1.0 {
		t.Fatalf("simple server slowdown = %v, want > 1", byName["Simple Server"].L2Slowdown)
	}
	if s := byName["Offloaded Server"].L2Slowdown; s < 0.97 || s > 1.03 {
		t.Fatalf("offloaded slowdown = %v, want ≈1", s)
	}
	if !strings.Contains(r.RenderTable3(), "Server Side CPU") {
		t.Fatal("table render broken")
	}
	if !strings.Contains(r.RenderFigure10(), "L2 Slowdown") {
		t.Fatal("figure render broken")
	}
}

func TestTable4Shape(t *testing.T) {
	r, err := RunTable4(DefaultSeed, QuickDuration)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ClientRow{}
	for _, row := range r.Rows {
		byName[row.Scenario] = row
	}
	idle := byName["Idle Client"]
	user := byName["User-space Client"]
	off := byName["Offloaded Client"]
	if user.CPU.Mean <= idle.CPU.Mean*1.5 {
		t.Fatalf("user client CPU %.2f not clearly above idle %.2f", user.CPU.Mean, idle.CPU.Mean)
	}
	if off.CPU.Mean > idle.CPU.Mean*1.1 {
		t.Fatalf("offloaded client CPU %.2f above idle %.2f", off.CPU.Mean, idle.CPU.Mean)
	}
	if user.MissDelta <= 0.02 {
		t.Fatalf("user client miss delta %.3f, want positive", user.MissDelta)
	}
	if off.MissDelta > 0.02 {
		t.Fatalf("offloaded client miss delta %.3f, want ≈0", off.MissDelta)
	}
	if !user.Verified || !off.Verified {
		t.Fatal("decode verification failed")
	}
	if !strings.Contains(r.RenderTable4(), "Client Side CPU") ||
		!strings.Contains(r.RenderClientL2(), "X1") {
		t.Fatal("render broken")
	}
}

func TestEnergy(t *testing.T) {
	r, err := RunEnergy(DefaultSeed, QuickDuration)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	simple, off := r.Rows[0], r.Rows[2]
	if simple.HostJoules <= 0 {
		t.Fatal("simple server consumed no marginal host energy")
	}
	if off.HostJoules > simple.HostJoules/10 {
		t.Fatalf("offloaded host energy %.3f J not ≪ simple %.3f J", off.HostJoules, simple.HostJoules)
	}
	// The device's marginal draw must be far below what it saves.
	if off.DeviceJoules >= simple.HostJoules {
		t.Fatalf("device energy %.4f J exceeds host saving %.3f J", off.DeviceJoules, simple.HostJoules)
	}
	if !strings.Contains(r.Render(), "X5") {
		t.Fatal("render broken")
	}
}

func TestLayoutAblation(t *testing.T) {
	a, err := RunLayoutAblation(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.GreedyWins == a.Graphs {
		t.Fatal("greedy always optimal: ablation uninformative")
	}
	if a.MeanGapFrac < 0 || a.MeanGapFrac > 1 {
		t.Fatalf("gap fraction = %v", a.MeanGapFrac)
	}
	if !strings.Contains(a.Render(), "X2") {
		t.Fatal("render broken")
	}
}

func TestChannelAblation(t *testing.T) {
	a, err := RunChannelAblation(8192, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.StagedTime <= a.ZeroCopyTime {
		t.Fatalf("staged (%v) not slower than zero-copy (%v)", a.StagedTime, a.ZeroCopyTime)
	}
	if a.StagedKernelAccesses <= a.ZeroCopyKernelAccesses {
		t.Fatal("staged did not touch more cache")
	}
	if !strings.Contains(a.Render(), "X3") {
		t.Fatal("render broken")
	}
}

func TestLoaderAblation(t *testing.T) {
	a, err := RunLoaderAblation(16<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeviceLink <= a.HostLink {
		t.Fatalf("device-link (%v) not slower than host-link (%v)", a.DeviceLink, a.HostLink)
	}
	if a.DeviceLinkMem <= a.HostLinkMem {
		t.Fatal("device-link did not use more device memory")
	}
	if !strings.Contains(a.Render(), "X4") {
		t.Fatal("render broken")
	}
}

func TestX6FailoverShape(t *testing.T) {
	res, err := RunFailover(DefaultSeed, 20*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFailoverShape(res); err != nil {
		t.Fatal(err)
	}
	// The faulted variants end on the expected NICs: single crash stays on
	// the standby; crash+failback lands back on the restored primary.
	byName := map[string]FailoverRow{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
	}
	if got := byName["Single NIC Crash"].FinalNIC; got != tivopc.StandbyNIC {
		t.Fatalf("single crash final NIC = %s", got)
	}
	if got := byName["Crash + Failback"].FinalNIC; got != tivopc.PrimaryNIC {
		t.Fatalf("crash+failback final NIC = %s", got)
	}
	if byName["Crash + Failback"].Recoveries != 2 {
		t.Fatalf("crash+failback recoveries = %d", byName["Crash + Failback"].Recoveries)
	}
	rendered := res.Render()
	for _, want := range []string{"X6", "Single NIC Crash", "Crash + Failback", "avail"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("render missing %q:\n%s", want, rendered)
		}
	}
}

func TestX7SaturationShape(t *testing.T) {
	res, err := RunSaturation(DefaultSeed, X7Duration)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSaturationShape(res); err != nil {
		t.Fatal(err)
	}
	byName := map[string]SaturationRow{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
	}
	perMsg := byName["per-message @50k/s"]
	deep := byName["batch 32/500µs @50k/s"]
	// The headline claims: coalescing cuts host cycles/message and
	// simulator event volume hard at high rate, and pays in latency.
	if deep.CyclesPerMsg >= perMsg.CyclesPerMsg/2 {
		t.Fatalf("cycles/msg: batched %.0f not ≪ per-message %.0f", deep.CyclesPerMsg, perMsg.CyclesPerMsg)
	}
	if deep.MeanLatencyMS <= perMsg.MeanLatencyMS {
		t.Fatalf("latency cost invisible: %.4f vs %.4f ms", deep.MeanLatencyMS, perMsg.MeanLatencyMS)
	}
	if deep.EventsFired >= perMsg.EventsFired {
		t.Fatalf("event volume not reduced: %d vs %d", deep.EventsFired, perMsg.EventsFired)
	}
	rendered := res.Render()
	for _, want := range []string{"X7", "per-message", "batch 32", "cycles/msg"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("render missing %q:\n%s", want, rendered)
		}
	}
}

// X7 obeys the determinism contract: repeats are bit-identical, and a
// worker-pool sweep over the cells matches the serial loop exactly.
func TestX7SaturationDeterministicAndSweepSafe(t *testing.T) {
	const dur = sim.Second
	a, err := RunSaturation(DefaultSeed, dur)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSaturation(DefaultSeed, dur)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fixed-seed X7 differs across repeats:\n%+v\nvs\n%+v", a, b)
	}

	seeds := []int64{DefaultSeed, DefaultSeed + 1, DefaultSeed + 2, DefaultSeed + 3}
	run := func(workers int) []*SaturationRow {
		rows, err := testbed.Sweep(testbed.SweepConfig{Seeds: seeds, Workers: workers},
			func(r testbed.Replica) (*SaturationRow, error) {
				row, _, err := RunSaturationCell(r.Seed, dur, 20_000, 8, 100*sim.Microsecond, nil)
				return row, err
			})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial, parallel := run(1), run(4)
	for i := range seeds {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("seed %d: serial %+v != parallel %+v", seeds[i], serial[i], parallel[i])
		}
	}
}

// X6 obeys the determinism contract: repeats are bit-identical, and the
// scenario sweep gives the same results serial or parallel.
func TestX6FailoverDeterministicAndSweepSafe(t *testing.T) {
	const dur = 10 * sim.Second
	a, err := RunFailover(DefaultSeed, dur)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFailover(DefaultSeed, dur)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fixed-seed X6 differs across repeats:\n%+v\nvs\n%+v", a, b)
	}

	sched := tivopc.CrashPrimaryNIC(4*sim.Second, 0)
	seeds := []int64{DefaultSeed, DefaultSeed + 1, DefaultSeed + 2, DefaultSeed + 3}
	run := func(workers int) []*tivopc.FailoverRun {
		runs, err := testbed.Sweep(testbed.SweepConfig{Seeds: seeds, Workers: workers},
			func(r testbed.Replica) (*tivopc.FailoverRun, error) {
				return tivopc.RunFailoverScenario(r.Seed, dur, sched)
			})
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	serial, parallel := run(1), run(4)
	for i := range seeds {
		if !reflect.DeepEqual(serial[i].Arrivals, parallel[i].Arrivals) {
			t.Fatalf("seed %d: serial and parallel failover arrivals differ", seeds[i])
		}
		if !reflect.DeepEqual(serial[i].Faults, parallel[i].Faults) {
			t.Fatalf("seed %d: fault logs differ across workers", seeds[i])
		}
	}
}

func TestX8ContentionShape(t *testing.T) {
	r, err := RunContention(DefaultSeed, X8Duration, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckContentionShape(r); err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"X8", "admit", "reclaimed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestX8ContentionDeterministicAndSweepSafe(t *testing.T) {
	serial, err := RunContention(DefaultSeed, X8Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunContention(DefaultSeed, X8Duration, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial != parallel:\n%+v\n%+v", serial.Rows, parallel.Rows)
	}
	again, err := RunContention(DefaultSeed, X8Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, again) {
		t.Fatal("fixed-seed X8 runs differ")
	}
}

func TestX9ClusterShape(t *testing.T) {
	r, err := RunCluster(DefaultSeed, X9Duration, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckClusterShape(r); err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"X9", "hosts", "moved in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestX9ClusterDeterministicAndSweepSafe(t *testing.T) {
	serial, err := RunCluster(DefaultSeed, X9Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCluster(DefaultSeed, X9Duration, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial != parallel:\n%+v\n%+v", serial.Rows, parallel.Rows)
	}
	again, err := RunCluster(DefaultSeed, X9Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, again) {
		t.Fatal("fixed-seed X9 runs differ")
	}
}
