// Package hostos models the host operating system of the paper's testbed: a
// 2.4 GHz Pentium IV running Linux 2.6.15 with a 1 ms timer tick.
//
// The model is deliberately mechanistic rather than statistical: the effects
// the paper measures (packet jitter, CPU utilization, kernel L2 miss rate)
// all emerge from explicit modeled causes —
//
//   - timer sleeps quantized to the next 1 ms jiffy boundary plus a small
//     scheduling latency (Tsafrir et al.'s "system noise", cited by the
//     paper as the reason devices give better timeliness),
//   - per-segment context-switch costs,
//   - buffer copies that walk the L2 cache model line by line,
//   - DMA writes that invalidate the target lines (so copying freshly
//     DMA-ed data always misses), and
//   - background daemon tasks that produce the paper's "idle system"
//     baseline of a few percent CPU and a steady kernel miss rate.
//
// Tasks are written in continuation-passing style: each primitive performs
// its modeled cost on the virtual CPU and then invokes the continuation.
package hostos

import (
	"fmt"
	"math/rand"

	"hydra/internal/cache"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Trace record names (obs.CatHost): one complete span per dispatched
// run-queue segment (host.seg user/other context, host.kseg kernel,
// host.irqseg ISRs; arg = cycles including any context switch), plus
// instants for interrupt injection and the memory ledger.
const (
	trSeg    = "host.seg"
	trKSeg   = "host.kseg"
	trIRQSeg = "host.irqseg"
	trIRQ    = "host.irq"
	trAlloc  = "host.alloc"
	trFree   = "host.free"
)

// Config describes the host hardware and scheduler cost model.
type Config struct {
	CPUFreqHz           float64      // core clock, e.g. 2.4e9
	TickPeriod          sim.Time     // scheduler/timer tick (1 ms on the testbed)
	ContextSwitchCycles uint64       // cost charged when the CPU switches tasks
	SchedLatency        sim.Time     // mean wakeup-to-run latency
	SchedJitter         sim.Time     // stddev of wakeup-to-run latency
	CopyBytesPerCycle   float64      // memcpy throughput in bytes per cycle
	Cache               cache.Config // L2 geometry
}

// PentiumIV returns the configuration used by every experiment: the paper's
// 2.4 GHz Pentium IV, 256 kB L2, Linux 2.6 with HZ=1000.
func PentiumIV() Config {
	return Config{
		CPUFreqHz:           2.4e9,
		TickPeriod:          sim.Millisecond,
		ContextSwitchCycles: 7200, // ~3 µs
		SchedLatency:        30 * sim.Microsecond,
		SchedJitter:         15 * sim.Microsecond,
		CopyBytesPerCycle:   4,
		Cache:               cache.PentiumIVL2(),
	}
}

// Machine is one host: CPU, scheduler, timer wheel, and L2 cache.
type Machine struct {
	Name string

	eng *sim.Engine
	cfg Config
	rng *rand.Rand
	l2  *cache.Cache

	runq     segQueue // ready work, FIFO within priority
	running  bool
	lastTask *Task
	cur      *segment   // segment the CPU is executing (nil when idle)
	doneFn   func()     // pre-bound completion continuation, to avoid a closure per dispatch
	segFree  []*segment // recycled segments; hot paths run alloc-free once warm
	irqTask  *Task      // shared identity for all ISR segments (see Interrupt)

	tr *obs.Shard // engine's trace shard when CatHost is enabled, else nil

	busy       sim.Time       // accumulated CPU busy time
	nextAddr   uint64         // bump allocator for synthetic addresses
	allocBytes uint64         // lifetime bytes handed out by Alloc
	freedBytes uint64         // lifetime bytes returned through Free
	liveAllocs map[uint64]int // live allocation sizes by base address
}

// New builds a machine on the engine. Each machine takes its own random
// stream so adding machines does not perturb others.
func New(eng *sim.Engine, name string, cfg Config) *Machine {
	if cfg.CPUFreqHz <= 0 || cfg.TickPeriod <= 0 || cfg.CopyBytesPerCycle <= 0 {
		panic("hostos: invalid config")
	}
	m := &Machine{
		Name:     name,
		eng:      eng,
		cfg:      cfg,
		rng:      eng.NewRand(int64(len(name))*131 + int64(name[0])),
		l2:       cache.New(cfg.Cache),
		nextAddr: 1 << 20, // leave page zero unused
		tr:       obs.ForCat(eng, obs.CatHost),
	}
	m.irqTask = &Task{m: m, name: "irq"}
	m.doneFn = func() {
		s := m.cur
		m.cur = nil
		m.running = false
		k := s.k
		m.freeSeg(s)
		if k != nil {
			k()
		}
		m.dispatch()
	}
	return m
}

// allocSeg takes a segment off the machine's free list (or mints one).
func (m *Machine) allocSeg() *segment {
	if n := len(m.segFree); n > 0 {
		s := m.segFree[n-1]
		m.segFree[n-1] = nil
		m.segFree = m.segFree[:n-1]
		return s
	}
	return &segment{}
}

// freeSeg recycles a completed segment, dropping its continuation so a
// finished callback's captured state is released immediately.
func (m *Machine) freeSeg(s *segment) {
	*s = segment{}
	if len(m.segFree) < 256 {
		m.segFree = append(m.segFree, s)
	}
}

// Engine returns the simulation engine the machine runs on.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// L2 exposes the cache model for DMA invalidation and experiment readout.
func (m *Machine) L2() *cache.Cache { return m.l2 }

// CyclesToTime converts a cycle count to virtual time at the core clock.
func (m *Machine) CyclesToTime(cycles uint64) sim.Time {
	return sim.Time(float64(cycles) / m.cfg.CPUFreqHz * float64(sim.Second))
}

// CopyCycles reports the compute cost of copying size bytes.
func (m *Machine) CopyCycles(size int) uint64 {
	if size <= 0 {
		return 0
	}
	return uint64(float64(size) / m.cfg.CopyBytesPerCycle)
}

// Alloc reserves size bytes of synthetic physical address space, aligned to
// a cache line, and returns the base address. Buffers allocated here are
// used to drive the cache model.
func (m *Machine) Alloc(size int) uint64 {
	line := uint64(m.cfg.Cache.LineBytes)
	m.nextAddr = (m.nextAddr + line - 1) &^ (line - 1)
	a := m.nextAddr
	m.nextAddr += uint64(size)
	if size > 0 {
		m.allocBytes += uint64(size)
		if m.liveAllocs == nil {
			m.liveAllocs = make(map[uint64]int)
		}
		m.liveAllocs[a] = size
		if m.tr.On() {
			m.tr.Instant(obs.CatHost, trAlloc, int64(size))
		}
	}
	return a
}

// FreeError is the typed error Free returns for a release that does not
// match a live allocation — a double free, a never-allocated address, or a
// size that disagrees with what Alloc handed out. The ledger is left
// untouched so LiveBytes stays truthful.
type FreeError struct {
	Addr   uint64
	Size   int
	Reason string
}

func (e *FreeError) Error() string {
	return fmt.Sprintf("hostos: free of %d bytes at %#x: %s", e.Size, e.Addr, e.Reason)
}

// Free returns size bytes at addr to the allocator's accounting. Addresses
// are never reused (the bump allocator keeps address assignment — and hence
// cache behaviour — deterministic), but the pinned-memory ledger must
// balance: long-lived structures such as channel ring buffers alloc at
// creation and free at close, and LiveBytes exposes what is still held.
// A release that does not match a live allocation — freed twice, never
// allocated, or the wrong size — returns a *FreeError and leaves the
// ledger untouched instead of silently corrupting LiveBytes.
func (m *Machine) Free(addr uint64, size int) error {
	if size <= 0 {
		return nil
	}
	got, ok := m.liveAllocs[addr]
	if !ok {
		return &FreeError{Addr: addr, Size: size, Reason: "not a live allocation (double free?)"}
	}
	if got != size {
		return &FreeError{Addr: addr, Size: size, Reason: fmt.Sprintf("size mismatch (allocated %d)", got)}
	}
	delete(m.liveAllocs, addr)
	m.freedBytes += uint64(size)
	if m.tr.On() {
		m.tr.Instant(obs.CatHost, trFree, int64(size))
	}
	return nil
}

// LiveBytes reports modeled host memory currently held (Alloc minus Free).
// Channel churn that leaks rings shows up here as monotonic growth.
func (m *Machine) LiveBytes() int64 { return int64(m.allocBytes) - int64(m.freedBytes) }

// DMAWrite models a device writing size bytes into host memory at addr:
// the affected lines are invalidated in L2 (non-allocating DMA), so the next
// CPU read of that data misses. This is the mechanism behind Figure 10.
func (m *Machine) DMAWrite(addr uint64, size int) {
	if size <= 0 {
		return
	}
	// Non-allocating DMA invalidates the lines without counting accesses.
	m.l2.InvalidateRange(addr, size)
}

// BusyTime reports accumulated CPU busy time (all contexts).
func (m *Machine) BusyTime() sim.Time { return m.busy }

// segment is one contiguous slice of CPU work belonging to a task.
type segment struct {
	task   *Task
	cycles uint64
	ctx    cache.Context
	k      func()
	isIRQ  bool
}

// Task is a schedulable thread of control.
type Task struct {
	m    *Machine
	name string
}

// NewTask creates a task (process/kthread) on the machine.
func (m *Machine) NewTask(name string) *Task {
	return &Task{m: m, name: name}
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

func (t *Task) String() string { return fmt.Sprintf("task(%s@%s)", t.name, t.m.Name) }

// Run enqueues cycles of work in the given context, then calls k.
func (t *Task) Run(cycles uint64, ctx cache.Context, k func()) {
	s := t.m.allocSeg()
	s.task, s.cycles, s.ctx, s.k = t, cycles, ctx, k
	t.m.enqueue(s)
}

// Syscall is kernel-context work: Run with cache.Kernel attribution.
func (t *Task) Syscall(cycles uint64, k func()) { t.Run(cycles, cache.Kernel, k) }

// Compute is user-context work.
func (t *Task) Compute(cycles uint64, k func()) { t.Run(cycles, cache.User, k) }

// Copy models memcpy(dst, src, size) in context ctx: it walks the cache over
// both ranges and charges the copy cycles, then calls k.
func (t *Task) Copy(ctx cache.Context, src, dst uint64, size int, k func()) {
	t.m.l2.AccessRange(ctx, src, size)
	t.m.l2.AccessRange(ctx, dst, size)
	t.Run(t.m.CopyCycles(size), ctx, k)
}

// TouchRange walks the cache over [addr, addr+size) in context ctx without
// charging CPU time; use it to model header inspection folded into a
// syscall's cycle budget.
func (t *Task) TouchRange(ctx cache.Context, addr uint64, size int) {
	t.m.l2.AccessRange(ctx, addr, size)
}

// Sleep blocks the task for at least d, waking at the next timer tick
// boundary after now+d plus a scheduling latency (Linux timer semantics).
// This quantization is the dominant source of the user-space servers'
// jitter in Figure 9.
func (t *Task) Sleep(d sim.Time, k func()) {
	t.SleepUntil(t.m.eng.Now()+d, k)
}

// SleepUntil blocks until the first tick boundary at or after the deadline,
// plus scheduling latency.
func (t *Task) SleepUntil(deadline sim.Time, k func()) {
	m := t.m
	tick := m.cfg.TickPeriod
	fire := ((deadline + tick - 1) / tick) * tick
	lat := m.schedNoise()
	m.eng.At(fire+lat, k)
}

func (m *Machine) schedNoise() sim.Time {
	n := float64(m.cfg.SchedLatency) + m.rng.NormFloat64()*float64(m.cfg.SchedJitter)
	if n < 0 {
		n = 0
	}
	return sim.Time(n)
}

// Interrupt injects an interrupt service routine: kernel work that jumps the
// run queue. k (optional) runs when the ISR completes.
func (m *Machine) Interrupt(name string, cycles uint64, k func()) {
	_ = name // identifies the source for the caller; ISRs share one identity
	if m.tr.On() {
		m.tr.Instant(obs.CatHost, trIRQ, int64(cycles))
	}
	s := m.allocSeg()
	s.task, s.cycles, s.ctx, s.k, s.isIRQ = m.irqTask, cycles, cache.Kernel, k, true
	m.enqueueFront(s)
}

func (m *Machine) enqueue(s *segment) {
	m.runq.pushBack(s)
	m.dispatch()
}

func (m *Machine) enqueueFront(s *segment) {
	m.runq.pushFront(s)
	m.dispatch()
}

// dispatch starts the CPU on the next segment if it is idle.
func (m *Machine) dispatch() {
	if m.running {
		return
	}
	s := m.runq.popFront()
	if s == nil {
		return
	}
	m.running = true
	m.cur = s

	cycles := s.cycles
	// Every ISR enters on a fresh kernel context — historically each
	// interrupt carried a unique Task identity — so it always pays the
	// context switch, and whatever runs after it always pays one too.
	if s.isIRQ {
		cycles += m.cfg.ContextSwitchCycles
		m.lastTask = nil
	} else if s.task != m.lastTask {
		cycles += m.cfg.ContextSwitchCycles
		m.lastTask = s.task
	}
	dur := m.CyclesToTime(cycles)
	m.busy += dur
	// The segment occupies [now, now+dur]; both ends are known at issue.
	if m.tr.On() {
		name := trSeg
		if s.isIRQ {
			name = trIRQSeg
		} else if s.ctx == cache.Kernel {
			name = trKSeg
		}
		m.tr.Complete(obs.CatHost, name, m.eng.Now(), dur, int64(cycles))
	}
	m.eng.Schedule(dur, m.doneFn)
}

// segQueue is a growable ring deque of segments: O(1) pushBack,
// pushFront and popFront with no per-operation allocation, unlike the
// old `append([]*segment{s}, runq...)` interrupt path which copied the
// whole queue per ISR.
type segQueue struct {
	buf        []*segment // power-of-two length
	head, tail int        // monotonically increasing; index = i & (len(buf)-1)
}

func (q *segQueue) len() int { return q.tail - q.head }

func (q *segQueue) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*segment, n)
	for i := q.head; i < q.tail; i++ {
		nb[i&(n-1)] = q.buf[i&(len(q.buf)-1)]
	}
	q.buf = nb
}

func (q *segQueue) pushBack(s *segment) {
	if q.len() == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&(len(q.buf)-1)] = s
	q.tail++
}

func (q *segQueue) pushFront(s *segment) {
	if q.len() == len(q.buf) {
		q.grow()
	}
	q.head--
	q.buf[q.head&(len(q.buf)-1)] = s
}

func (q *segQueue) popFront() *segment {
	if q.len() == 0 {
		return nil
	}
	s := q.buf[q.head&(len(q.buf)-1)]
	q.buf[q.head&(len(q.buf)-1)] = nil
	q.head++
	return s
}

// UtilizationSampler produces periodic utilization samples the way the paper
// does ("samples were taken every 5 seconds during a 10 minute run").
type UtilizationSampler struct {
	Samples  []float64
	lastBusy sim.Time
	lastAt   sim.Time
}

// SampleUtilization installs a sampler taking a reading every interval.
func (m *Machine) SampleUtilization(interval sim.Time) *UtilizationSampler {
	s := &UtilizationSampler{}
	m.eng.Tick(interval, 0, func() {
		now := m.eng.Now()
		windowBusy := m.busy - s.lastBusy
		window := now - s.lastAt
		if window > 0 {
			s.Samples = append(s.Samples, 100*float64(windowBusy)/float64(window))
		}
		s.lastBusy = m.busy
		s.lastAt = now
	})
	return s
}

// MissRateSampler samples the kernel L2 miss rate per window, as oprofile
// does in the paper's Figure 10 methodology.
type MissRateSampler struct {
	Samples      []float64
	lastAccesses uint64
	lastMisses   uint64
}

// SampleKernelMissRate installs a sampler reading the kernel miss rate every
// interval.
func (m *Machine) SampleKernelMissRate(interval sim.Time) *MissRateSampler {
	s := &MissRateSampler{}
	m.eng.Tick(interval, 0, func() {
		st := m.l2.Stats(cache.Kernel)
		da := st.Accesses - s.lastAccesses
		dm := st.Misses - s.lastMisses
		if da > 0 {
			s.Samples = append(s.Samples, float64(dm)/float64(da))
		}
		s.lastAccesses = st.Accesses
		s.lastMisses = st.Misses
	})
	return s
}
