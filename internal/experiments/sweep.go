package experiments

import (
	"fmt"

	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/testbed"
	"hydra/internal/tivopc"
)

// JitterSweep holds a multi-seed replica sweep of one Table 2 server
// scenario: per-seed jitter summaries plus the pooled distribution. The
// paper reports one seed per scenario; sweeping seeds bounds the run-to-run
// variance of the reproduction and is the unit of scale for the worker
// pool.
type JitterSweep struct {
	Kind  ServerKind
	Seeds []int64
	// PerSeed holds each replica's jitter summary, in seed order.
	PerSeed []stats.Summary
	// Pooled summarizes the union of every replica's inter-arrival gaps.
	Pooled stats.Summary
}

// RunJitterSweep replays the Table 2 jitter scenario for kind once per
// seed, fanning the replicas out over workers goroutines (0 → GOMAXPROCS,
// 1 → serial). Results are bit-identical regardless of workers.
func RunJitterSweep(kind ServerKind, seeds []int64, duration sim.Time, workers int) (*JitterSweep, error) {
	runs, err := testbed.Sweep(testbed.SweepConfig{Seeds: seeds, Workers: workers},
		func(r testbed.Replica) (*tivopc.ServerRun, error) {
			return tivopc.RunServerScenario(kind, r.Seed, duration)
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: jitter sweep: %w", err)
	}
	out := &JitterSweep{Kind: kind, Seeds: seeds}
	gaps := make([][]float64, len(runs))
	for i, run := range runs {
		out.PerSeed = append(out.PerSeed, run.JitterSummary())
		gaps[i] = run.JitterGaps
	}
	out.Pooled = testbed.SummarizeMerged(gaps)
	return out, nil
}

// Render prints the sweep in the Table 2 presentation style.
func (s *JitterSweep) Render() string {
	out := fmt.Sprintf("Jitter sweep — %v over %d seeds\n", s.Kind, len(s.Seeds))
	for i, sum := range s.PerSeed {
		out += fmt.Sprintf("  seed %-6d median %5.2f  mean %5.2f  stddev %6.4f  n=%d\n",
			s.Seeds[i], sum.Median, sum.Mean, sum.StdDev, sum.N)
	}
	out += fmt.Sprintf("  pooled       median %5.2f  mean %5.2f  stddev %6.4f  n=%d\n",
		s.Pooled.Median, s.Pooled.Mean, s.Pooled.StdDev, s.Pooled.N)
	return out
}
