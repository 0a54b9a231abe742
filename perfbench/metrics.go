package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples before it means anything.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1, or 0.5
// for the median) and fails unless at least minTail samples lie beyond
// it. xs is not modified.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile of no samples")
	}
	if q < 0.5 || q > 1 {
		return 0, fmt.Errorf("quantile %v outside [0.5, 1]", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail && q > 0.5 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (want ≥%d)", 100*q, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank median; it needs no tail, and no samples
// give 0 (a span the workload never makes).
func median(xs []float64) float64 {
	v, err := quantile(xs, 0.5)
	if err != nil {
		return 0
	}
	return v
}

// perUnit normalises a run total by the units of simulated work the run
// completed. A run that completed nothing cannot be normalised.
func perUnit(total float64, units uint64) (float64, error) {
	if units == 0 {
		return 0, fmt.Errorf("no units completed")
	}
	return total / float64(units), nil
}

// nameRE is the metric-name charset the benchmark contract accepts.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the metric-unit charset the benchmark contract accepts.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the metrics an untraced run prints, with their units.
// BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"units_per_cpu_s", "1/s"},
	{"slice_cpu_ms_p50", "ms"},
	{"slice_cpu_ms_p99", "ms"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"sim_lat_p50_us", "us"},
	{"sim_lat_p99_us", "us"},
	{"host_cycles_per_unit", "cycles"},
	{"ok_frac", "frac"},
}

// layers are the CPU-attribution rows: hydra/internal packages a sample's
// innermost deciding frame can name, plus other (the remaining internal
// packages), bench (the innermost deciding frame is the benchmark's own:
// its glue Offcodes and its measuring code) and runtime.gc (no hydra frame
// and no harness frame).
var layers = []string{
	"sim", "channel", "bus", "device", "hostos", "cache", "syscall", "call",
	"flowtable", "loadgen", "cluster", "nfs", "netsim", "mpeg", "tivopc",
	"core", "testbed", "other", "runtime.gc", "bench",
}

// spanNames are the wall-clock spans the benchmark records around its
// own calls into the layers.
var spanNames = []struct{ name, unit string }{
	{"testbed.build_ms", "ms"},
	{"cluster.commit_ms", "ms"},
	{"flowtable.process_ns_p50", "ns"},
	{"loadgen.emit_ns_p50", "ns"},
	{"channel.write_ns_p50", "ns"},
	{"syscall.issue_ns_p50", "ns"},
}

// counterNames are the per-layer counts, normalised as their names say.
var counterNames = []struct{ name, unit string }{
	{"sim.events_per_unit", "count"},
	{"sim.cpu_per_wall", "frac"},
	{"channel.msgs_per_unit", "count"},
	{"channel.interrupts_per_unit", "count"},
	{"channel.batch_fill", "msgs"},
	{"bus.transactions_per_unit", "count"},
	{"cache.accesses_per_unit", "count"},
	{"cache.miss_rate", "frac"},
	{"flowtable.hit_rate", "frac"},
	{"flowtable.evictions_per_kunit", "count"},
	{"syscall.denied_frac", "frac"},
	{"nfs.requests_per_unit", "count"},
	{"runtime.alloc_bytes_per_unit", "B"},
	{"runtime.allocs_per_unit", "count"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_frac", "frac"},
}

// perLayerNames lists every metric a traced run prints, in order.
func perLayerNames() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{l + ".cpu_ns_per_unit", "ns"})
	}
	out = append(out, spanNames...)
	return append(out, counterNames...)
}
