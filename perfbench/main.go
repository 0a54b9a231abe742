// Command perfbench is the HYDRA simulator's benchmark. It runs one named
// workload for a wall-clock budget as a series of repetitions, each in a
// fresh child process that builds the world from the seed, advances it in
// fixed simulated slices and checks the workload's ledgers. The last line
// of standard output is one JSON object: the end-to-end metrics, or with
// -trace 1 the per-layer metrics. Any broken ledger exits non-zero
// without a result.
//
//	go run . -workload dataplane -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: dataplane, syscall-storm or tivopc")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "wall-clock budget for the repetitions")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from traced repetitions instead")
	rep := flag.Int("rep", 0, "run one repetition in this process (1 untraced, 2 traced) and print its raw result")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && *rep != 0 {
		var r *repResult
		if r, err = runRep(w, *seed, *rep == 2); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(r)
		}
	} else if err == nil {
		err = run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run repeats the workload in child processes until the budget is spent,
// alternating untraced and traced repetitions when traced is set.
func run(w workload, seed int64, budget time.Duration, traced bool) error {
	const minReps = 3
	var reps []*repResult
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		mode := 1
		if traced && i%2 == 1 {
			mode = 2
		}
		r, err := spawnRep(w, seed, mode)
		if err != nil {
			return err
		}
		if len(reps) > 0 && r.Digest != reps[0].Digest {
			return fmt.Errorf("%s: repetition %d digest %s differs from %s for the same seed",
				w.name, i, r.Digest, reps[0].Digest)
		}
		reps = append(reps, r)
	}
	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	var err error
	if traced {
		err = perLayer(reps, res.Metrics)
	} else {
		err = endToEndMetrics(reps, res.Metrics)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	for k, m := range res.Metrics {
		if !nameRE.MatchString(k) || !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q unit %q outside the contract's charset", k, m.Unit)
		}
	}
	fmt.Printf("digest %s seed=%d %s (%d repetitions, unit: %s)\n", w.name, seed, reps[0].Digest, len(reps), w.unit)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func spawnRep(w workload, seed int64, mode int) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-rep", strconv.Itoa(mode))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", w.name, err)
	}
	var r repResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s repetition output: %w", w.name, err)
	}
	return &r, nil
}

// endToEndMetrics aggregates untraced repetitions. Host times are
// process CPU time normalised by each repetition's reference job:
// throughput and set-up time are medians over repetitions, slice
// percentiles are taken over every slice of the run. The simulated
// metrics are reproduced exactly by every repetition of one seed.
func endToEndMetrics(reps []*repResult, m map[string]metric) error {
	var attempted, failed uint64
	var rates, slices, setups, heaps []float64
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		rates = append(rates, float64(r.Units)/normalise(r.TimedS, r.RefS))
		for _, ms := range r.SlicesMS {
			slices = append(slices, normalise(ms, r.RefS))
		}
		setups = append(setups, normalise(r.SetupS, r.RefS))
		heaps = append(heaps, r.PeakHeapMB)
	}
	p50, err := quantile(slices, 0.5)
	if err != nil {
		return err
	}
	p99, err := quantile(slices, 0.99)
	if err != nil {
		return err
	}
	cyc, err := perUnit(reps[0].HostCycles, reps[0].Units)
	if err != nil {
		return err
	}
	for name, v := range map[string]float64{
		"units_per_cpu_s":      median(rates),
		"slice_cpu_ms_p50":     p50,
		"slice_cpu_ms_p99":     p99,
		"setup_s":              median(setups),
		"peak_heap_mb":         median(heaps),
		"sim_lat_p50_us":       reps[0].LatP50US,
		"sim_lat_p99_us":       reps[0].LatP99US,
		"host_cycles_per_unit": cyc,
		"ok_frac":              float64(attempted-failed) / float64(attempted),
	} {
		m[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
	}
	return nil
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, e := range list {
		if e.name == name {
			return e.unit
		}
	}
	return ""
}

// perLayer aggregates traced repetitions into the per-layer table: CPU
// samples per unit by layer, span medians, and counters per unit. The
// untraced repetitions between them give the tracing overhead.
func perLayer(reps []*repResult, m map[string]metric) error {
	var units uint64
	var wall, cpu, sampled, timedCPU float64
	var plainRates, tracedRates []float64
	var c counts
	var allocB, allocN float64
	var gcs []float64
	cpuNS := make(map[string]float64)
	spanVals := make(map[string][]float64)
	for _, r := range reps {
		rate := float64(r.Units) / normalise(r.TimedS, r.RefS)
		if !r.Traced {
			plainRates = append(plainRates, rate)
			continue
		}
		tracedRates = append(tracedRates, rate)
		units += r.Units
		timedCPU += r.TimedS
		wall += r.RunWallS
		cpu += r.RunCPUS
		for k, v := range r.CPUNS {
			cpuNS[k] += v
			sampled += v
		}
		for k, v := range r.Spans {
			spanVals[k] = append(spanVals[k], v)
		}
		c.add(r.Counts)
		allocB += r.AllocBytes
		allocN += r.AllocObjs
		gcs = append(gcs, r.GCCycles)
	}
	if units == 0 || len(plainRates) == 0 {
		return fmt.Errorf("a traced run needs traced and untraced repetitions")
	}
	names := perLayerNames()
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(names, name)} }
	per := func(v float64) float64 { return v / float64(units) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var rows float64
	for _, l := range layers {
		set(l+".cpu_ns_per_unit", per(cpuNS[l]))
		rows += cpuNS[l]
	}
	if sampled > 0 {
		fmt.Fprintf(os.Stderr, "layer rows cover %.1f%% of %.0f ms sampled CPU (%.0f ms measured); bench %.2f%%\n",
			100*rows/sampled, sampled/1e6, timedCPU*1e3, 100*cpuNS["bench"]/sampled)
	}
	for _, s := range spanNames {
		set(s.name, median(spanVals[s.name]))
	}
	set("sim.events_per_unit", per(float64(c.Events)))
	set("sim.cpu_per_wall", cpu/wall)
	set("channel.msgs_per_unit", per(float64(c.Msgs)))
	set("channel.interrupts_per_unit", per(float64(c.Interrupts)))
	set("channel.batch_fill", ratio(c.Msgs, c.Batches))
	set("bus.transactions_per_unit", per(float64(c.BusTx)))
	set("cache.accesses_per_unit", per(float64(c.CacheAcc)))
	set("cache.miss_rate", ratio(c.CacheMiss, c.CacheAcc))
	set("flowtable.hit_rate", ratio(c.Hits, c.Lookups))
	set("flowtable.evictions_per_kunit", 1000*per(float64(c.Evicted)))
	set("syscall.denied_frac", ratio(c.Denied, c.Issued+c.Denied))
	set("nfs.requests_per_unit", per(float64(c.NFSReq)))
	set("runtime.alloc_bytes_per_unit", per(allocB))
	set("runtime.allocs_per_unit", per(allocN))
	set("runtime.gc_cycles", median(gcs))
	set("bench.trace_overhead_frac", 1-median(tracedRates)/median(plainRates))
	return nil
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Msgs += o.Msgs
	c.Interrupts += o.Interrupts
	c.Batches += o.Batches
	c.BusTx += o.BusTx
	c.CacheAcc += o.CacheAcc
	c.CacheMiss += o.CacheMiss
	c.Lookups += o.Lookups
	c.Hits += o.Hits
	c.Evicted += o.Evicted
	c.Issued += o.Issued
	c.Denied += o.Denied
	c.NFSReq += o.NFSReq
}
