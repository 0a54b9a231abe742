package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	goscall "syscall"
	"time"
	"unsafe"

	"hydra/internal/bus"
	"hydra/internal/channel"
	"hydra/internal/hostos"
)

// instance is one built workload world, advanced one fixed simulated
// slice at a time.
type instance interface {
	// step advances one slice and reports false, doing nothing, once the
	// workload's span is exhausted.
	step() bool
	// drain runs in-flight work to completion.
	drain()
	// check verifies the workload's ledgers and reports its simulated
	// outcome. It runs off the clock.
	check() (*outcome, error)
}

type workload struct {
	name, unit string
	build      func(seed int64, sp *spans) (instance, error)
}

var workloads = []workload{
	{"dataplane", "packet processed by a shard", buildDataplane},
	{"syscall-storm", "completed syscall", buildSyscallStorm},
	{"tivopc", "1 KB chunk delivered to the client", buildTivo},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what one repetition produced, in simulated terms.
type outcome struct {
	units, attempted, failed uint64
	lats                     []float64 // simulated latencies, µs
	hostCycles               float64   // modelled host CPU cycles, all hosts
	digest                   uint64
	counts                   counts
}

func (o *outcome) addHost(m *hostos.Machine, b *bus.Bus) {
	o.hostCycles += m.BusyTime().Float64Seconds() * m.Config().CPUFreqHz
	o.counts.BusTx += b.Total().Transactions
	cs := m.L2().TotalStats()
	o.counts.CacheAcc += cs.Accesses
	o.counts.CacheMiss += cs.Misses
}

// counts are the raw layer counters a repetition read from the layers'
// public stats.
type counts struct {
	Events, Msgs, Interrupts, Batches, BusTx, CacheAcc, CacheMiss uint64
	Lookups, Hits, Evicted, Issued, Denied, NFSReq                uint64
}

func (c *counts) addChannel(s channel.Stats) {
	c.Msgs += s.Delivered
	c.Interrupts += s.Interrupts
	c.Batches += s.Batches
}

// Span names recorded around the benchmark's own calls into the layers.
const (
	spanBuild   = "testbed.build_ms"
	spanCommit  = "cluster.commit_ms"
	spanProcess = "flowtable.process"
	spanEmit    = "loadgen.emit"
	spanWrite   = "channel.write"
	spanIssue   = "syscall.issue"
)

// spans collects wall-clock spans in a traced repetition. Per-call spans
// go to callTimes recorders, one per glue object, so engines running in
// parallel windows never share one. A recorder times one call in
// callSample, which keeps the clock reads and the appends off most calls.
type spans struct {
	on    bool
	ms    map[string]float64
	calls []*callTimes
}

func (s *spans) setup(name string, fn func()) {
	t := time.Now()
	fn()
	if s.on {
		s.ms[name] += float64(time.Since(t).Nanoseconds()) / 1e6
	}
}

func (s *spans) recorder() *callTimes {
	c := &callTimes{on: s.on, ns: make(map[string][]float64)}
	s.calls = append(s.calls, c)
	return c
}

// callP50 is the median duration of every recorded call of one kind.
func (s *spans) callP50(name string) float64 {
	var all []float64
	for _, c := range s.calls {
		all = append(all, c.ns[name]...)
	}
	return median(all)
}

const callSample = 64

type callTimes struct {
	on bool
	n  uint64 // calls started
	ns map[string][]float64
}

// start returns the time of a sampled call and the zero time otherwise.
func (c *callTimes) start() time.Time {
	if !c.on {
		return time.Time{}
	}
	if c.n++; c.n%callSample != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (c *callTimes) done(name string, t time.Time) {
	if !t.IsZero() {
		c.ns[name] = append(c.ns[name], float64(time.Since(t).Nanoseconds()))
	}
}

// digest folds simulated outputs into one FNV-1a witness.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h ^= uint64(byte(v >> (8 * i)))
			d.h *= 1099511628211
		}
	}
}

func (d *digest) addFloats(xs []float64) {
	for _, x := range xs {
		d.add(math.Float64bits(x))
	}
}

func (d *digest) sum() uint64 { return d.h }

// repResult is one repetition's raw measurements, passed from the child
// process that ran it to the parent that aggregates. Times are raw CPU
// seconds; RefS is the reference job's CPU time around them.
type repResult struct {
	Digest     string
	Units      uint64
	Attempted  uint64
	Failed     uint64
	RefS       float64
	SetupS     float64   // build to first slice
	TimedS     float64   // first slice to the end of the drain
	SlicesMS   []float64 // per slice
	PeakHeapMB float64
	LatP50US   float64
	LatP99US   float64
	HostCycles float64

	Traced     bool
	CPUNS      map[string]float64
	Spans      map[string]float64
	Counts     counts
	RunCPUS    float64
	RunWallS   float64
	AllocBytes float64
	AllocObjs  float64
	GCCycles   float64
}

var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime(s []metrics.Sample) (heap, allocB, allocN, gcs float64) {
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()),
		float64(s[2].Value.Uint64()), float64(s[3].Value.Uint64())
}

// processCPU reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID), in
// seconds: time its threads ran, which excludes time the host stole from
// the virtual CPUs. Linux always provides this clock.
func processCPU() float64 {
	var ts goscall.Timespec
	goscall.Syscall(goscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// runRep builds one world, times it slice by slice in process CPU time
// and checks its ledgers. A traced repetition also records spans, a CPU
// profile, wall time inside the slices and the runtime's allocation
// counters over the timed region.
func runRep(w workload, seed int64, traced bool) (*repResult, error) {
	r := &repResult{Traced: traced, RefS: reference()}
	runtime.GC() // the reference's garbage must not be collected on the clock
	sp := &spans{on: traced, ms: make(map[string]float64)}
	build := processCPU()
	inst, err := w.build(seed, sp)
	if err != nil {
		return nil, err
	}
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	var prof bytes.Buffer
	_, a0, n0, g0 := readRuntime(rs)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	begin := processCPU()
	r.SetupS = begin - build
	for {
		c0 := processCPU()
		t := time.Now()
		if !inst.step() {
			break
		}
		dt := time.Since(t)
		dc := processCPU() - c0
		r.SlicesMS = append(r.SlicesMS, dc*1e3)
		r.RunCPUS += dc
		r.RunWallS += dt.Seconds()
		heap, _, _, _ := readRuntime(rs)
		r.PeakHeapMB = max(r.PeakHeapMB, heap/(1<<20))
	}
	inst.drain()
	r.TimedS = processCPU() - begin
	_, a1, n1, g1 := readRuntime(rs)
	if traced {
		pprof.StopCPUProfile()
	}
	out, err := inst.check()
	if err != nil {
		return nil, err
	}
	r.Digest = fmt.Sprintf("%016x", out.digest)
	r.Units, r.Attempted, r.Failed = out.units, out.attempted, out.failed
	r.HostCycles = out.hostCycles
	if r.LatP50US, err = quantile(out.lats, 0.5); err != nil {
		return nil, fmt.Errorf("simulated latency: %w", err)
	}
	if r.LatP99US, err = quantile(out.lats, 0.99); err != nil {
		return nil, fmt.Errorf("simulated latency: %w", err)
	}
	if traced {
		r.Counts = out.counts
		r.AllocBytes, r.AllocObjs, r.GCCycles = a1-a0, n1-n0, g1-g0
		r.Spans = map[string]float64{
			spanBuild:                  sp.ms[spanBuild],
			spanCommit:                 sp.ms[spanCommit],
			"flowtable.process_ns_p50": sp.callP50(spanProcess),
			"loadgen.emit_ns_p50":      sp.callP50(spanEmit),
			"channel.write_ns_p50":     sp.callP50(spanWrite),
			"syscall.issue_ns_p50":     sp.callP50(spanIssue),
		}
	}
	// Time the second reference on a heap as empty as the first one's:
	// the world, its outcome and the spans are dead, and collecting them
	// must not be charged to the reference.
	inst, out, sp = nil, nil, nil
	runtime.GC()
	r.RefS = (r.RefS + reference()) / 2
	if traced {
		path, err := writeTemp(prof.Bytes(), "cpu-*.pprof")
		if err != nil {
			return nil, err
		}
		r.CPUNS, err = foldProfile(path)
		os.Remove(path)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}
