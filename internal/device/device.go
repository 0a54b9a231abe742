// Package device models a programmable peripheral: an embedded CPU, local
// memory, a DMA engine mastering the host bus, precise hardware timers, and
// a firmware environment that HYDRA can load Offcodes into.
//
// The paper's offloading arguments map onto explicit model features:
//
//   - "Timeliness guarantees" (§1.1 #2): device timers fire at their exact
//     deadline plus microsecond-scale noise — no 1 ms tick quantization —
//     which is what produces the offloaded server's 0.04 ms jitter stddev
//     against the host's 0.5 ms.
//   - "Memory bottlenecks" (§1.1 #1): device work touches only local memory;
//     the host L2 model never sees it.
//   - "Reduced power consumption" (§1.1 #3): devices carry idle/busy power
//     ratings (the paper contrasts a 68 W Pentium 4 with a 0.5 W XScale).
//
// Device memory holds real bytes: the HYDRA loader writes linked Offcode
// images into it, and tests verify relocation bytes end to end. It is
// paged: a fixed-size page is allocated on its first write, and a page
// never written reads as zeros, so a device costs host memory in
// proportion to what was loaded, not to its rated local memory.
package device

import (
	"fmt"
	"math/rand"

	"hydra/internal/bus"
	"hydra/internal/hostos"
	"hydra/internal/sim"
)

// Class describes a device class as ODF <device-class> entries do (paper
// Figure 4): applications request classes, and the runtime matches installed
// devices against them.
type Class struct {
	ID     uint32
	Name   string
	Bus    string // e.g. "pci"
	MAC    string // e.g. "ethernet" (optional)
	Vendor string // optional
}

// Matches reports whether a concrete device class satisfies a requested
// class. Empty fields in the request are wildcards; a zero ID is a wildcard.
func (want Class) Matches(have Class) bool {
	if want.ID != 0 && want.ID != have.ID {
		return false
	}
	if want.Name != "" && want.Name != have.Name {
		return false
	}
	if want.Bus != "" && want.Bus != have.Bus {
		return false
	}
	if want.MAC != "" && want.MAC != have.MAC {
		return false
	}
	if want.Vendor != "" && want.Vendor != have.Vendor {
		return false
	}
	return true
}

// Config describes one programmable device.
type Config struct {
	Name          string
	Class         Class
	CPUFreqHz     float64  // embedded core clock (e.g. 600e6 for XScale)
	LocalMemBytes int      // firmware-managed local memory
	TimerJitter   sim.Time // stddev of hardware timer firing error
	PowerIdleW    float64
	PowerBusyW    float64
}

// XScaleNIC is a 3Com 3C985B-class programmable NIC profile: 600 MHz
// XScale-ish core, 2 MB local SRAM, sub-50 µs timers, 0.5 W busy.
func XScaleNIC(name string) Config {
	return Config{
		Name:          name,
		Class:         Class{ID: 0x0001, Name: "Network Device", Bus: "pci", MAC: "ethernet", Vendor: "3COM"},
		CPUFreqHz:     600e6,
		LocalMemBytes: 2 << 20,
		TimerJitter:   25 * sim.Microsecond,
		PowerIdleW:    0.2,
		PowerBusyW:    0.5,
	}
}

// GPU is a programmable display adapter profile like the §6.3 client's:
// 450 MHz core, 16 MB local framebuffer memory, tight hardware timers.
func GPU(name string) Config {
	return Config{
		Name:          name,
		Class:         Class{ID: 0x0003, Name: "Display Device", Bus: "pci"},
		CPUFreqHz:     450e6,
		LocalMemBytes: 16 << 20,
		TimerJitter:   10 * sim.Microsecond,
		PowerIdleW:    5,
		PowerBusyW:    25,
	}
}

// SmartDisk is a programmable storage-controller profile (the paper's
// "Smart Disk", §6.1): a modest embedded core whose firmware can speak
// whole protocols such as NFS.
func SmartDisk(name string) Config {
	return Config{
		Name:          name,
		Class:         Class{ID: 0x0002, Name: "Storage Device", Bus: "pci"},
		CPUFreqHz:     400e6,
		LocalMemBytes: 4 << 20,
		TimerJitter:   25 * sim.Microsecond,
		PowerIdleW:    0.3,
		PowerBusyW:    0.8,
	}
}

// Device is one programmable peripheral attached to a host.
type Device struct {
	cfg  Config
	eng  *sim.Engine
	host *hostos.Machine
	bsys *bus.Bus
	rng  *rand.Rand

	pages    []*page // local memory; nil until a page is first written
	memUsed  int
	memFreed int
	memGen   uint64
	exports  map[string]uint64
	busyTime sim.Time
	busy     bool
	queue    sim.FIFO[*devSegment]
	segFree  []*devSegment // recycled segments; Exec runs alloc-free once warm
	dmaFree  []*dmaStep    // recycled host-bound DMA completions
	peerBuf  []bus.Agent   // DMAToPeers' destinations; TransferMulti keeps no reference

	// Failure model. epoch increments on every crash, so callbacks armed
	// by dead firmware (in-flight Exec segments, hardware timers) can
	// recognize they no longer belong to the running instance and fall
	// silent.
	crashed bool
	epoch   uint64
}

// devSegment is one Exec: pooled per device, with its fire step bound
// once when minted. epoch is the firmware instance that scheduled it, kept
// on the segment because a crash and Restore can start a newer segment
// while this one's engine event is still pending.
type devSegment struct {
	d      *Device
	cycles uint64
	k      func()
	epoch  uint64
	fireFn func()
}

// New attaches a device to host over b.
func New(eng *sim.Engine, host *hostos.Machine, b *bus.Bus, cfg Config) *Device {
	if cfg.CPUFreqHz <= 0 || cfg.LocalMemBytes <= 0 {
		panic("device: invalid config")
	}
	d := &Device{
		cfg:     cfg,
		eng:     eng,
		host:    host,
		bsys:    b,
		rng:     eng.NewRand(int64(cfg.Class.ID)*977 + int64(len(cfg.Name))),
		pages:   make([]*page, (cfg.LocalMemBytes+pageSize-1)/pageSize),
		exports: make(map[string]uint64),
	}
	return d
}

// Name returns the device name (its bus agent identity).
func (d *Device) Name() string { return d.cfg.Name }

// Class returns the device's hardware class.
func (d *Device) Class() Class { return d.cfg.Class }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Engine returns the simulation engine the device runs on. Subsystems
// built beside the device (e.g. a syscall issuer) use it for clocks and
// trace shards without reaching through the host.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Agent returns the device's bus agent name.
func (d *Device) Agent() bus.Agent { return bus.Agent(d.cfg.Name) }

// CyclesToTime converts embedded-CPU cycles to time.
func (d *Device) CyclesToTime(cycles uint64) sim.Time {
	return sim.Time(float64(cycles) / d.cfg.CPUFreqHz * float64(sim.Second))
}

// Exec runs cycles of firmware work on the embedded CPU, serialized with
// other device work, then calls k. On a crashed device the work is
// dropped silently — k is never invoked — exactly like firmware that has
// stopped fetching instructions.
func (d *Device) Exec(cycles uint64, k func()) {
	if d.crashed {
		return
	}
	s := d.getSeg()
	s.cycles, s.k = cycles, k
	d.queue.Push(s)
	d.pump()
}

func (d *Device) getSeg() *devSegment {
	if n := len(d.segFree); n > 0 {
		s := d.segFree[n-1]
		d.segFree[n-1] = nil
		d.segFree = d.segFree[:n-1]
		return s
	}
	s := &devSegment{d: d}
	s.fireFn = s.fire
	return s
}

// putSeg recycles a segment whose engine event has fired (or that never
// got one), dropping its continuation.
func (d *Device) putSeg(s *devSegment) {
	s.k = nil
	if len(d.segFree) < 256 {
		d.segFree = append(d.segFree, s)
	}
}

func (d *Device) pump() {
	if d.busy || d.queue.Len() == 0 {
		return
	}
	s := d.queue.Pop()
	d.busy = true
	dur := d.CyclesToTime(s.cycles)
	d.busyTime += dur
	s.epoch = d.epoch
	d.eng.Schedule(dur, s.fireFn)
}

// fire ends the segment's engine event. The segment returns to the pool
// either way: its event is the only reference the engine held.
func (s *devSegment) fire() {
	d, k := s.d, s.k
	stale := d.epoch != s.epoch
	d.putSeg(s)
	if stale {
		return // the firmware that issued this work died mid-segment
	}
	d.busy = false
	if k != nil {
		k()
	}
	d.pump()
}

// --- Failure model (driven by internal/faults) ---

// Healthy reports whether the device is executing work.
func (d *Device) Healthy() bool { return !d.crashed }

// Crash kills the device: queued and in-flight firmware work vanishes,
// timers stop, DMA engines halt. Crashing an already-crashed device is a
// no-op.
func (d *Device) Crash() {
	if d.crashed {
		return
	}
	d.crashed = true
	d.epoch++
	for d.queue.Len() > 0 {
		d.putSeg(d.queue.Pop()) // queued work never reached the engine
	}
	d.busy = false
}

// Restore brings a crashed device back with a power-on reset: local
// memory is cleared and every allocation is lost (firmware exports live
// in ROM and survive). The runtime must reload and restart any Offcodes
// that lived here.
func (d *Device) Restore() {
	if !d.crashed {
		return
	}
	clear(d.pages)
	d.memUsed = 0
	d.memFreed = 0
	d.memGen++
	d.crashed = false
}

// BusyTime reports accumulated embedded-CPU busy time.
func (d *Device) BusyTime() sim.Time { return d.busyTime }

// EnergyJoules estimates energy consumed so far from the power ratings.
func (d *Device) EnergyJoules() float64 {
	now := d.eng.Now().Float64Seconds()
	busy := d.busyTime.Float64Seconds()
	if busy > now {
		busy = now
	}
	return busy*d.cfg.PowerBusyW + (now-busy)*d.cfg.PowerIdleW
}

// PeriodicTimer fires k every period±jitter. Unlike host timer loops the
// period does not accumulate drift: each deadline is period after the
// previous deadline, not after the previous firing. The ticker dies with
// the firmware instance that armed it: a crash permanently
// silences it (Restore does not revive it — the restarted firmware must
// arm its own).
func (d *Device) PeriodicTimer(period sim.Time, k func()) *sim.Ticker {
	tk := &sim.Ticker{}
	deadline := d.eng.Now()
	epoch := d.epoch
	var arm func()
	arm = func() {
		deadline += period
		noise := sim.Time(d.rng.NormFloat64() * float64(d.cfg.TimerJitter))
		at := deadline + noise
		d.eng.At(at, func() {
			if tk.Stopped() || d.epoch != epoch {
				return
			}
			k()
			arm()
		})
	}
	arm()
	return tk
}

// --- Local memory and firmware exports (used by the HYDRA loader) ---

// AllocMem reserves size bytes of device-local memory and returns its
// device address. This is the paper's AllocateOffcodeMemory (§4.2).
func (d *Device) AllocMem(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("device %s: alloc of %d bytes", d.cfg.Name, size)
	}
	if d.crashed {
		return 0, fmt.Errorf("device %s: allocation while crashed", d.cfg.Name)
	}
	const align = 16
	base := (d.memUsed + align - 1) &^ (align - 1)
	if base+size > d.cfg.LocalMemBytes {
		return 0, fmt.Errorf("device %s: out of local memory (%d used, %d requested, %d total)",
			d.cfg.Name, d.memUsed, size, d.cfg.LocalMemBytes)
	}
	d.memUsed = base + size
	return uint64(base), nil
}

// FreeMem returns size bytes to the local-memory ledger — the accounting
// mirror of AllocMem, used when a deployed Offcode is stopped or rolled
// back. Like the host allocator, addresses are never reused (the bump
// pointer keeps layout deterministic); MemLive reflects the balance.
// Frees never drive the ledger negative: a free of more than is live
// (e.g. against a ledger a crash restore already wiped) clamps.
func (d *Device) FreeMem(size int) {
	if size <= 0 {
		return
	}
	if d.memFreed+size > d.memUsed {
		d.memFreed = d.memUsed
		return
	}
	d.memFreed += size
}

// MemGeneration counts power-on resets of the memory ledger: it bumps
// whenever a crash restore wipes local memory. Holders of allocation
// accounting (Offcode teardown closers) free only when the generation
// still matches the one they allocated under — a wiped ledger already
// forgot them.
func (d *Device) MemGeneration() uint64 { return d.memGen }

// MemUsed reports lifetime bytes of local memory handed out by AllocMem.
func (d *Device) MemUsed() int { return d.memUsed }

// MemLive reports bytes currently held (AllocMem minus FreeMem) — Offcode
// churn that leaks device memory shows up here as monotonic growth.
func (d *Device) MemLive() int { return d.memUsed - d.memFreed }

// pageSize is the granule local memory is allocated in on first write.
const pageSize = 4 << 10

type page [pageSize]byte

// MemError is the typed error WriteMem and ReadMem return for an access
// that does not lie inside local memory: a negative size, or an address
// range that runs past the end (however large the address).
type MemError struct {
	Device string
	Op     string // "read" or "write"
	Addr   uint64
	Size   int
}

func (e *MemError) Error() string {
	return fmt.Sprintf("device %s: %s of %d bytes at %#x: beyond local memory", e.Device, e.Op, e.Size, e.Addr)
}

// checkRange validates [addr, addr+size) against local memory without
// computing addr+size, which could overflow.
func (d *Device) checkRange(op string, addr uint64, size int) error {
	limit := uint64(d.cfg.LocalMemBytes)
	if size < 0 || addr > limit || uint64(size) > limit-addr {
		return &MemError{Device: d.cfg.Name, Op: op, Addr: addr, Size: size}
	}
	return nil
}

// WriteMem copies data into device memory at addr, allocating each page
// it touches for the first time.
func (d *Device) WriteMem(addr uint64, data []byte) error {
	if err := d.checkRange("write", addr, len(data)); err != nil {
		return err
	}
	for len(data) > 0 {
		i, off := addr/pageSize, addr%pageSize
		if d.pages[i] == nil {
			d.pages[i] = new(page)
		}
		n := copy(d.pages[i][off:], data)
		data, addr = data[n:], addr+uint64(n)
	}
	return nil
}

// ReadMem returns a copy of size bytes at addr. Pages never written read
// as zeros.
func (d *Device) ReadMem(addr uint64, size int) ([]byte, error) {
	if err := d.checkRange("read", addr, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	for rest := out; len(rest) > 0; {
		i, off := addr/pageSize, addr%pageSize
		n := min(len(rest), int(pageSize-off))
		if p := d.pages[i]; p != nil {
			copy(rest, p[off:])
		}
		rest, addr = rest[n:], addr+uint64(n)
	}
	return out, nil
}

// Export publishes a firmware symbol at a device address; the host-side
// linker resolves Offcode relocations against these.
func (d *Device) Export(symbol string, addr uint64) { d.exports[symbol] = addr }

// Exports returns the firmware symbol table.
func (d *Device) Exports() map[string]uint64 {
	out := make(map[string]uint64, len(d.exports))
	for k, v := range d.exports {
		out[k] = v
	}
	return out
}

// --- DMA ---

// dmaStep is one host-bound DMA's completion: pooled per device, with its
// land step bound once when minted. It returns to the pool when the
// transfer lands.
type dmaStep struct {
	d      *Device
	addr   uint64
	size   int
	done   func()
	landFn func()
}

// toHost takes a landing step for a host-bound transfer of size bytes at
// hostAddr: when the transfer lands it invalidates the host's cached copy
// of those bytes and then calls done.
func (d *Device) toHost(hostAddr uint64, size int, done func()) *dmaStep {
	var s *dmaStep
	if n := len(d.dmaFree); n > 0 {
		s = d.dmaFree[n-1]
		d.dmaFree[n-1] = nil
		d.dmaFree = d.dmaFree[:n-1]
	} else {
		s = &dmaStep{d: d}
		s.landFn = s.land
	}
	s.addr, s.size, s.done = hostAddr, size, done
	return s
}

// land ends the transfer: host-side cache invalidation of the target
// lines, then the caller's continuation.
func (s *dmaStep) land() {
	d, done := s.d, s.done
	d.host.DMAWrite(s.addr, s.size)
	s.done = nil
	if len(d.dmaFree) < 256 {
		d.dmaFree = append(d.dmaFree, s)
	}
	if done != nil {
		done()
	}
}

// DMAToHost writes size bytes from the device into host memory at hostAddr:
// one bus transaction, then host-side cache invalidation of the target lines.
func (d *Device) DMAToHost(hostAddr uint64, size int, done func()) {
	if d.crashed {
		return
	}
	d.bsys.Transfer(d.Agent(), bus.MainMemory, size, d.toHost(hostAddr, size, done).landFn)
}

// DMAFromHost reads size bytes of host memory into the device. Reads do not
// invalidate host cache lines.
func (d *Device) DMAFromHost(hostAddr uint64, size int, done func()) {
	if d.crashed {
		return
	}
	if done == nil {
		done = func() {} // the transfer still schedules its completion event
	}
	d.bsys.Transfer(bus.MainMemory, d.Agent(), size, done)
}

// DMAToHostGather writes several logically distinct payloads into host
// memory at hostAddr as ONE gather transaction: a single bus crossing for
// the summed bytes (plus per-segment descriptor fetches), then one host-side
// cache invalidation of the whole landing range. This is how a batched
// descriptor ring retires N completions per interrupt.
func (d *Device) DMAToHostGather(hostAddr uint64, sizes []int, done func()) {
	if d.crashed {
		return
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	d.bsys.TransferGather(d.Agent(), bus.MainMemory, sizes, d.toHost(hostAddr, total, done).landFn)
}

// DMAFromHostGather reads several payloads from host memory in one gather
// transaction. Reads do not invalidate host cache lines.
func (d *Device) DMAFromHostGather(hostAddr uint64, sizes []int, done func()) {
	if d.crashed {
		return
	}
	_ = hostAddr // reads leave the host cache alone
	if done == nil {
		done = func() {} // the transfer still schedules its completion event
	}
	d.bsys.TransferGather(bus.MainMemory, d.Agent(), sizes, done)
}

// DMAToPeers multicasts size bytes to several devices in one bus
// transaction (paper §1 fn.2: "if the bus architecture allows it, this
// packet could be transferred in a single bus transaction").
func (d *Device) DMAToPeers(peers []*Device, size int, done func()) {
	if d.crashed {
		return
	}
	d.peerBuf = d.peerBuf[:0]
	for _, p := range peers {
		d.peerBuf = append(d.peerBuf, p.Agent())
	}
	d.bsys.TransferMulti(d.Agent(), d.peerBuf, size, done)
}

// InterruptHost raises a host interrupt attributed to this device. Dead
// devices raise no interrupts.
func (d *Device) InterruptHost(cycles uint64, k func()) {
	if d.crashed {
		return
	}
	d.host.Interrupt(d.cfg.Name, cycles, k)
}
