package testbed

import (
	"fmt"
	"runtime"
	"sync"

	"hydra/internal/stats"
)

// Replica identifies one run of a sweep: its position in the sweep and the
// engine seed it must use.
type Replica struct {
	Index int
	Seed  int64
}

// SweepConfig sizes a scenario sweep.
type SweepConfig struct {
	// Seeds lists the seed of each replica, in replica order.
	Seeds []int64
	// Workers bounds concurrent replicas (0 → GOMAXPROCS). Workers == 1
	// runs the sweep serially on the calling goroutine.
	Workers int
}

func (c SweepConfig) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sweep runs one scenario replica per seed on a pool of worker goroutines,
// each replica on its own independent engine, and returns the results in
// replica order. Because every replica derives all state from its own
// seed-derived engine, results are bit-identical whether Workers is 1 or
// GOMAXPROCS — parallelism changes only the wall clock.
//
// run must build everything it needs from the Replica (no sharing of
// engines, hosts or devices across replicas). If any replica fails, Sweep
// finishes the in-flight work and returns the lowest-index error.
func Sweep[T any](cfg SweepConfig, run func(Replica) (T, error)) ([]T, error) {
	seeds := cfg.Seeds
	n := len(seeds)
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, nil
	}

	// safeRun converts a replica panic into its error, so serial and
	// parallel sweeps fail identically.
	safeRun := func(i int) (result T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("seed %d panicked: %v", seeds[i], r)
			}
		}()
		return run(Replica{Index: i, Seed: seeds[i]})
	}

	if cfg.workers(n) == 1 {
		for i := range seeds {
			results[i], errs[i] = safeRun(i)
		}
		return results, firstError(errs)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = safeRun(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, firstError(errs)
}

func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("testbed: replica %d: %w", i, err)
		}
	}
	return nil
}

// MergeSamples concatenates per-replica sample slices in replica order —
// the deterministic way to pool sweep measurements before summarizing.
func MergeSamples(perReplica [][]float64) []float64 {
	var total int
	for _, s := range perReplica {
		total += len(s)
	}
	out := make([]float64, 0, total)
	for _, s := range perReplica {
		out = append(out, s...)
	}
	return out
}

// SummarizeMerged pools per-replica samples and summarizes the union.
func SummarizeMerged(perReplica [][]float64) stats.Summary {
	return stats.Summarize(MergeSamples(perReplica))
}
