// Package bus models the host I/O interconnect (PCI/PCIe-like) that carries
// every transfer between main memory and the peripheral devices.
//
// The paper's central performance argument is that offloading eliminates
// "expensive memory bus crossings" (§1.1), so the bus model is the spine of
// the reproduction: it serializes transfers through a shared link with a
// fixed per-transaction arbitration overhead and a byte rate, and it counts
// the traffic it carries so the experiments can report bus pressure.
//
// Per the paper's footnote 2, a PCIe-style bus can deliver one packet to
// multiple peripherals in a single transaction; TransferMulti models this.
package bus

import (
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Agent identifies a bus master or target (a device or main memory). A
// transfer names its agents for the reader; the link is shared, so its
// cost depends only on size and on the traffic ahead of it.
type Agent string

// MainMemory is the agent name for host DRAM.
const MainMemory Agent = "memory"

// Config sets the physical characteristics of the interconnect.
type Config struct {
	// BytesPerSec is the usable bus bandwidth.
	BytesPerSec float64
	// TransactionOverhead is the fixed arbitration + header cost per
	// transaction, independent of payload size.
	TransactionOverhead sim.Time
	// SegmentOverhead is the per-additional-segment descriptor-fetch cost of
	// a gather transaction (TransferGather): far cheaper than a full
	// arbitration, but not free. Zero models an ideal gather engine.
	SegmentOverhead sim.Time
}

// DefaultConfig approximates a 32-bit/66 MHz PCI segment: ~266 MB/s with a
// ~0.5 µs transaction setup cost. The absolute values only need to be
// plausible; experiments depend on relative costs.
func DefaultConfig() Config {
	return Config{
		BytesPerSec:         266e6,
		TransactionOverhead: 500 * sim.Nanosecond,
		SegmentOverhead:     50 * sim.Nanosecond,
	}
}

// Stats counts the traffic a bus has carried.
type Stats struct {
	Transactions uint64
	Bytes        uint64
}

// Trace record names (obs.CatBus): one complete span per transaction,
// covering the committed wire occupancy [start, finish].
const (
	trXfer       = "bus.xfer"
	trXferGather = "bus.xfer.gather"
)

// Bus is the shared interconnect. Transfers are serialized: a transfer
// issued while another is in flight queues behind it (FIFO), which produces
// realistic contention when several devices DMA concurrently.
type Bus struct {
	eng   *sim.Engine
	cfg   Config
	busy  sim.Time // time the bus becomes free
	total Stats

	// tr is the engine's trace shard when CatBus is enabled, else nil.
	tr *obs.Shard
}

// New creates a bus on the given engine.
func New(eng *sim.Engine, cfg Config) *Bus {
	if cfg.BytesPerSec <= 0 {
		panic("bus: non-positive bandwidth")
	}
	return &Bus{eng: eng, cfg: cfg, tr: obs.ForCat(eng, obs.CatBus)}
}

// TransferTime reports the raw wire time for size bytes, excluding queuing.
func (b *Bus) TransferTime(size int) sim.Time {
	if size < 0 {
		panic("bus: negative transfer size")
	}
	return b.cfg.TransactionOverhead +
		sim.Time(float64(size)/b.cfg.BytesPerSec*float64(sim.Second))
}

// Transfer moves size bytes from src to dst and invokes done (if non-nil)
// when the transaction completes. It returns the completion time.
func (b *Bus) Transfer(src, dst Agent, size int, done func()) sim.Time {
	return b.transferDur(size, 0, done)
}

// TransferMulti moves size bytes from src to every agent in dsts in a
// single transaction (single wire time): the modeled bus is PCIe-style
// and multicasts (paper §1 fn.2).
func (b *Bus) TransferMulti(src Agent, dsts []Agent, size int, done func()) sim.Time {
	if len(dsts) == 0 {
		panic("bus: multicast with no destinations")
	}
	return b.transferDur(size, 0, done)
}

// TransferGather moves several logically distinct payloads from src to dst
// in ONE bus transaction: a single arbitration + header, wire time for the
// summed bytes, plus SegmentOverhead for every segment beyond the first.
// This is the descriptor-ring amortization the paper's zero-copy NIC channel
// is built around: N completions ride one crossing instead of N.
func (b *Bus) TransferGather(src, dst Agent, sizes []int, done func()) sim.Time {
	if len(sizes) == 0 {
		panic("bus: gather with no segments")
	}
	total := 0
	for _, s := range sizes {
		if s < 0 {
			panic("bus: negative gather segment")
		}
		total += s
	}
	extra := sim.Time(len(sizes)-1) * b.cfg.SegmentOverhead
	return b.transferDur(total, extra, done)
}

func (b *Bus) transferDur(size int, extra sim.Time, done func()) sim.Time {
	dur := b.TransferTime(size) + extra
	start := b.eng.Now()
	if b.busy > start {
		start = b.busy
	}
	finish := start + dur
	b.busy = finish
	// Start and finish are committed at issue, so the whole occupancy
	// span records synchronously.
	if b.tr.On() {
		name := trXfer
		if extra > 0 {
			name = trXferGather
		}
		b.tr.Complete(obs.CatBus, name, start, dur, int64(size))
	}

	b.total.Transactions++
	b.total.Bytes += uint64(size)

	if done != nil {
		b.eng.At(finish, done)
	}
	return finish
}

// Total reports aggregate traffic since creation.
func (b *Bus) Total() Stats { return b.total }
