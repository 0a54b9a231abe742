package experiments

import (
	"fmt"
	"strings"

	"hydra/internal/core"
	"hydra/internal/faults"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/tivopc"
)

// X6: fault injection and self-healing. The §6.4 offloaded server streams
// with a standby NIC while the fault injector kills programmable NICs
// mid-run; the runtime health monitor detects the silence and migrates the
// Server/File/Broadcast Offcodes onto the surviving NIC, restoring the
// File's stream offset from its checkpoint. The experiment scales the fault
// rate from none to repeated crash-and-failback and reports what the client
// saw: detection latency, migration time, chunks lost, availability, and
// the stream's post-recovery jitter (which should return to the offloaded
// server's sub-0.1 ms level — the device timer still paces the stream after
// it moves).

// FailoverRow is one fault-rate variant's outcome.
type FailoverRow struct {
	Scenario string
	// FaultCount is the number of injected device faults.
	FaultCount int
	// Recoveries is how many failovers the runtime performed.
	Recoveries int
	// DetectMS / MigrateMS are mean detection latency and migration time.
	DetectMS  float64
	MigrateMS float64
	// Delivered / Lost / Availability describe the client-visible stream.
	Delivered    int
	Lost         int
	Availability float64
	// PostJitter summarizes inter-arrival gaps after the last recovery.
	PostJitter stats.Summary
	// FinalNIC is where the streamer ended up.
	FinalNIC string
}

// FailoverResults holds X6.
type FailoverResults struct {
	Duration sim.Time
	Rows     []FailoverRow
}

// failoverVariant is one rung of the X6 ladder: a named fault schedule.
type failoverVariant struct {
	name  string
	sched faults.Schedule
}

// failoverVariants is the fault-rate ladder: a fault-free baseline, one
// crash with permanent failover, and a crash → restart → second crash
// sequence that forces a failback onto the restored primary.
func failoverVariants(duration sim.Time) []failoverVariant {
	third := duration / 3
	return []failoverVariant{
		{"No Faults", nil},
		{"Single NIC Crash", tivopc.CrashPrimaryNIC(third, 0)},
		{"Crash + Failback", faults.Schedule{
			{At: third, Kind: faults.DeviceCrash, Device: tivopc.PrimaryNIC, Duration: 2 * sim.Second},
			{At: 2 * third, Kind: faults.DeviceCrash, Device: tivopc.StandbyNIC},
		}},
	}
}

// RunFailover executes the X6 fault-rate ladder, fanning the variants out
// through testbed.Sweep (one private engine per variant, results identical
// to a serial loop).
func RunFailover(seed int64, duration sim.Time) (*FailoverResults, error) {
	variants := failoverVariants(duration)
	runs, err := grid("failover", seed, 0, variants, func(seed int64, v failoverVariant) (*tivopc.FailoverRun, error) {
		return tivopc.RunFailoverScenario(seed, duration, v.sched)
	})
	if err != nil {
		return nil, err
	}
	out := &FailoverResults{Duration: duration}
	for i, v := range variants {
		run := runs[i]
		row := FailoverRow{
			Scenario:     v.name,
			FaultCount:   len(v.sched),
			Recoveries:   len(run.Recoveries),
			Delivered:    run.Delivered(),
			Lost:         run.ChunksLost(),
			Availability: run.Availability(),
			PostJitter:   run.PostRecoveryJitter(),
			FinalNIC:     run.FinalNIC,
		}
		var detect, migrate sim.Time
		for _, lat := range run.DetectionLatencies() {
			detect += lat
		}
		for _, rec := range run.Recoveries {
			migrate += rec.MigrationTime()
		}
		if n := len(run.Recoveries); n > 0 {
			row.DetectMS = (detect / sim.Time(n)).Milliseconds()
			row.MigrateMS = (migrate / sim.Time(n)).Milliseconds()
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// CheckFailoverShape asserts the qualitative X6 outcome: the baseline loses
// nothing, every faulted variant recovers with high availability, and the
// post-recovery stream still paces at the device-timer jitter level.
func CheckFailoverShape(r *FailoverResults) error {
	if len(r.Rows) < 3 {
		return fmt.Errorf("experiments: failover: %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		switch {
		case row.FaultCount == 0:
			if row.Recoveries != 0 || row.Lost != 0 {
				return fmt.Errorf("experiments: baseline recovered %d, lost %d", row.Recoveries, row.Lost)
			}
		default:
			if row.Recoveries != row.FaultCount {
				return fmt.Errorf("experiments: %s: %d faults but %d recoveries",
					row.Scenario, row.FaultCount, row.Recoveries)
			}
			if row.Lost == 0 {
				return fmt.Errorf("experiments: %s lost no chunks; fault had no client effect", row.Scenario)
			}
			if row.DetectMS <= 0 || row.MigrateMS <= 0 {
				return fmt.Errorf("experiments: %s: detect %.2f ms, migrate %.2f ms",
					row.Scenario, row.DetectMS, row.MigrateMS)
			}
		}
		if row.Availability < 0.9 {
			return fmt.Errorf("experiments: %s availability %.3f < 0.9", row.Scenario, row.Availability)
		}
		if row.PostJitter.StdDev > 0.5 {
			return fmt.Errorf("experiments: %s post-recovery stddev %.4f ms; stream did not re-stabilize",
				row.Scenario, row.PostJitter.StdDev)
		}
	}
	return nil
}

// Render prints X6 in the evaluation's presentation style.
func (r *FailoverResults) Render() string {
	var b strings.Builder
	b.WriteString("X6 — NIC failover: detection, migration, client-visible availability\n")
	fmt.Fprintf(&b, "  (offloaded server, %v streamed, standby NIC, %v heartbeat)\n",
		r.Duration, core.Heartbeat)
	b.WriteString("  Scenario           faults  recov  detect(ms)  migrate(ms)  lost  avail   post-σ(ms)  final NIC\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %5d  %5d  %9.2f  %11.3f  %4d  %5.3f  %9.4f  %s\n",
			row.Scenario, row.FaultCount, row.Recoveries, row.DetectMS, row.MigrateMS,
			row.Lost, row.Availability, row.PostJitter.StdDev, row.FinalNIC)
	}
	b.WriteString("  shape: detection ≈ heartbeat scale, migration ≪ detection, availability ≈ 1,\n")
	b.WriteString("  post-recovery jitter back at the offloaded server's device-timer level.\n")
	return b.String()
}
