package experiments

// Engine microbenchmark suite: the raw-speed gate for the simulator
// core (binary heap + pooled events). Three workloads isolate the
// queue behaviours the full experiments mix together:
//
//   - chain: a handful of self-rescheduling timers — the pending set
//     stays tiny, the size real workloads run at, so this is pure
//     pop/reschedule overhead.
//   - wide: 100k concurrent timers with spread-out deadlines — a deep
//     pending set, 50× the largest any scenario reaches, so every
//     operation pays the heap's full O(log n) depth.
//   - churn: schedule/cancel-heavy — every fired event plants several
//     far-horizon decoys and immediately cancels them, the pattern of
//     timeouts that almost never fire (retransmit timers, watchdogs).
//     Eager cancel removal plus slot recycling is what keeps this from
//     drowning the queue.
//
// Each row reports fired-event throughput and heap allocations per
// event (runtime.MemStats mallocs over the measured run; engine and
// workload construction are excluded, so steady state should sit near
// zero). Event counts are deterministic for a seed; wall-clock derived
// columns are not and are excluded from golden comparisons — CI instead
// fails a run whose events/sec falls below 0.8× the committed baseline's,
// a one-sided floor with no upper bound (see cmd/hydra-bench -baseline).

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hydra/internal/obs"
	"hydra/internal/sim"
)

// EngineBenchEvents is the fired-event target per workload.
const EngineBenchEvents = 1_000_000

// engineChainTimers is the chain workload's pending-set size;
// engineWideTimers is wide's.
const (
	engineChainTimers = 64
	engineWideTimers  = 100_000
	engineChurnDecoys = 4
)

// EngineBenchRow is one engine workload's outcome.
type EngineBenchRow struct {
	Scenario string
	// Pending is the approximate steady-state pending-event count.
	Pending int
	// Events counts fired events; Canceled counts events scheduled and
	// then canceled before firing (churn only).
	Events   uint64
	Canceled uint64
	// WallMS and EventsPerSec time the measured run (fired events only;
	// churn additionally did 2×Canceled queue operations in the same
	// window). AllocsPerEvent is heap mallocs per fired event.
	WallMS         float64
	EventsPerSec   float64
	AllocsPerEvent float64
	// TraceRecords reports the recorder's record count for the
	// trace-on row (zero elsewhere).
	TraceRecords uint64
}

// EngineBenchResults holds the engine suite.
type EngineBenchResults struct {
	Rows []EngineBenchRow
}

// engineRNG is a splitmix64 stream: deterministic workload shapes
// without touching the engine's own RNG.
func engineRNG(seed int64) func() uint64 {
	x := uint64(seed)
	return func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// measureEngine times drive, bracketing it with MemStats reads so the
// allocation column reflects only the measured run.
func measureEngine(name string, pending int, drive func() (fired, canceled uint64)) EngineBenchRow {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fired, canceled := drive()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	row := EngineBenchRow{
		Scenario: name,
		Pending:  pending,
		Events:   fired,
		Canceled: canceled,
		WallMS:   float64(wall.Microseconds()) / 1000,
	}
	if fired > 0 {
		row.EventsPerSec = float64(fired) / wall.Seconds()
		row.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fired)
	}
	return row
}

// engineTimerLoop seeds timers self-rescheduling timers with
// deterministic pseudo-random intervals in [1, spread] µs and returns a
// drive function that runs the engine until target events fired (every
// already-scheduled timer still drains, so totals overshoot by at most
// timers-1). The caller supplies the engine so the trace-overhead rows
// can attach a recorder before the workload is seeded.
func engineTimerLoop(eng *sim.Engine, seed int64, timers int, spread uint64, target uint64) func() (uint64, uint64) {
	rng := engineRNG(seed)
	interval := func() sim.Time { return sim.Time(rng()%spread+1) * sim.Microsecond }
	var fired uint64
	for i := 0; i < timers; i++ {
		var tick func()
		tick = func() {
			fired++
			if fired < target {
				eng.Schedule(interval(), tick)
			}
		}
		eng.Schedule(interval(), tick)
	}
	return func() (uint64, uint64) {
		eng.RunAll()
		return fired, 0
	}
}

// engineChurnLoop is engineTimerLoop with decoys: every fired event
// schedules engineChurnDecoys far-horizon events (≈1 s out, next to
// none of which would ever fire) and cancels them on the spot.
func engineChurnLoop(seed int64, timers int, target uint64) func() (uint64, uint64) {
	eng := sim.NewEngine(seed)
	rng := engineRNG(seed)
	var fired, canceled uint64
	nop := func() {}
	for i := 0; i < timers; i++ {
		var tick func()
		tick = func() {
			fired++
			for d := 0; d < engineChurnDecoys; d++ {
				decoy := eng.Schedule(sim.Second+sim.Time(rng()%1_000_000)*sim.Microsecond, nop)
				decoy.Cancel()
				canceled++
			}
			if fired < target {
				eng.Schedule(sim.Time(rng()%200+1)*sim.Microsecond, tick)
			}
		}
		eng.Schedule(sim.Time(rng()%200+1)*sim.Microsecond, tick)
	}
	return func() (uint64, uint64) {
		eng.RunAll()
		return fired, canceled
	}
}

// RunEngineBench runs the engine suite at the given fired-event target
// per workload.
func RunEngineBench(seed int64, target uint64) (*EngineBenchResults, error) {
	if target == 0 {
		return nil, fmt.Errorf("experiments: engine: zero event target")
	}
	res := &EngineBenchResults{}
	res.Rows = append(res.Rows,
		measureEngine("chain", engineChainTimers,
			engineTimerLoop(sim.NewEngine(seed), seed, engineChainTimers, 97, target)),
		measureEngine("wide", engineWideTimers,
			engineTimerLoop(sim.NewEngine(seed), seed, engineWideTimers, 1000, target)),
		measureEngine("churn", engineChainTimers,
			engineChurnLoop(seed, engineChainTimers, target)),
	)

	// Trace-overhead rows, both against chain (the small-heap regime
	// every real workload runs in):
	//   - trace-off: recorder attached but the sim category masked out, so
	//     the engine probe is never installed — the disabled fast path the
	//     2% overhead budget covers.
	//   - trace-on: full sim-category recording, two records per event
	//     (sched + fire) — the price of actually capturing a trace.
	offEng := sim.NewEngine(seed)
	obs.NewTracer(obs.Config{Mask: obs.MaskAll}).Attach(offEng, "bench")
	res.Rows = append(res.Rows, measureEngine("chain-trace-off", engineChainTimers,
		engineTimerLoop(offEng, seed, engineChainTimers, 97, target)))

	onEng := sim.NewEngine(seed)
	onTr := obs.NewTracer(obs.Config{Mask: obs.MaskEverything})
	onTr.Attach(onEng, "bench")
	rowOn := measureEngine("chain-trace-on", engineChainTimers,
		engineTimerLoop(onEng, seed, engineChainTimers, 97, target))
	rowOn.TraceRecords = uint64(onTr.Len())
	res.Rows = append(res.Rows, rowOn)
	return res, nil
}

// CheckEngineBenchShape asserts each workload fired at least its target
// (determinism of the counts themselves is covered by the sim package's
// reference-heap oracle test).
func CheckEngineBenchShape(r *EngineBenchResults, target uint64) error {
	for _, row := range r.Rows {
		if row.Events < target {
			return fmt.Errorf("experiments: engine: %s fired %d < target %d",
				row.Scenario, row.Events, target)
		}
		if row.Scenario == "churn" && row.Canceled < engineChurnDecoys*target {
			return fmt.Errorf("experiments: engine: churn canceled %d < %d",
				row.Canceled, uint64(engineChurnDecoys)*target)
		}
	}
	return nil
}

// Render prints the engine suite.
func (r *EngineBenchResults) Render() string {
	var b strings.Builder
	b.WriteString("ENGINE — Simulator-core microbenchmarks: binary heap + pooled events\n")
	b.WriteString("  Workload         pending   events fired  canceled   wall(ms)    events/s  allocs/event  trace-recs\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-15s  %7d  %12d  %8d  %9.1f  %10.0f  %12.3f  %10d\n",
			row.Scenario, row.Pending, row.Events, row.Canceled,
			row.WallMS, row.EventsPerSec, row.AllocsPerEvent, row.TraceRecords)
	}
	b.WriteString("  shape: allocs/event ≈ 0 in steady state; wide exercises a deep heap, churn the\n")
	b.WriteString("  cancel/recycle path. events/s is hardware-dependent — CI fails it only below\n")
	b.WriteString("  0.8x the committed baseline (one-sided), never bit-for-bit.\n")
	b.WriteString("  chain-trace-off must sit in chain's noise band (disabled-recorder contract);\n")
	b.WriteString("  chain-trace-on pays for two ring records per event.\n")
	return b.String()
}
