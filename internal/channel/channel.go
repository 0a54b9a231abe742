// Package channel implements HYDRA's communication channels (§3.2, §4.1):
// the bidirectional pathways connecting OA-applications and Offcodes.
//
// A channel is created by one endpoint with a chosen configuration — unicast
// or multicast, reliable or unreliable, sequential or concurrent dispatch,
// zero-copy or staged buffering — and then Offcode endpoints are connected
// to it. Transfers ride the simulated bus exactly as §4.1's zero-copy NIC
// channel does: descriptor rings bound the number of in-flight messages
// (InRing toward the device, pre-posted OutRing entries for spontaneous
// device→host messages), reliable channels queue when descriptors run out
// ("careful not to drop messages even though buffer descriptors are not
// available") while unreliable channels drop, and completions recycle ring
// slots.
//
// The cost model is what distinguishes endpoint placements:
//
//   - host→device: optional kernel staging copy (walks L2), then device DMA
//     from pinned host memory (the paper's Memory Management pinning).
//   - device→host: DMA into a host ring buffer (invalidating those cache
//     lines), an interrupt, then handler dispatch; a staged read copies
//     once more.
//   - device→device: a peer-to-peer bus transaction, no host involvement —
//     the TiVoPC NIC→GPU path.
//   - host→host: a plain in-memory copy.
package channel

import (
	"errors"
	"fmt"

	"hydra/internal/bus"
	"hydra/internal/cache"
	"hydra/internal/device"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Trace record names (obs.CatChannel). Counts reconcile with Stats:
// chan.send == Sent, chan.delivered == Delivered, chan.irq == Interrupts,
// chan.drop == Dropped, chan.queued == Queued, chan.batch + chan.coalesce
// == Batches, chan.coalesce == CoalesceFlushes, chan.replay == Replayed
// (messages in chan.hold groups either replay or surface as Undelivered).
const (
	trSend      = "chan.send"
	trDelivered = "chan.delivered"
	trIRQ       = "chan.irq"
	trDrop      = "chan.drop"
	trQueued    = "chan.queued"
	trBatch     = "chan.batch"
	trCoalesce  = "chan.coalesce"
	trTx        = "chan.tx"
	trDMA       = "chan.dma"
	trDMAGather = "chan.dma.gather"
	trDeliver   = "chan.deliver"
	trHold      = "chan.hold"
	trReplay    = "chan.replay"
)

// SyncMode selects handler dispatch semantics (§3.2 "synchronization
// requirements").
type SyncMode int

// Sync modes.
const (
	// SyncSequential serializes handler invocations per endpoint.
	SyncSequential SyncMode = iota
	// SyncConcurrent dispatches each message as it arrives.
	SyncConcurrent
)

// Config mirrors the paper's ChannelConfig (Figure 3).
type Config struct {
	Multicast     bool
	Reliable      bool
	Sync          SyncMode
	ZeroCopyRead  bool // DIRECT_READ: no staging copy at the receiver
	ZeroCopyWrite bool // DIRECT_WRITE: no staging copy at the sender
	RingEntries   int  // per-direction descriptor ring depth
	MaxMessage    int  // largest payload; sizes ring buffers

	// Batch is the maximum number of descriptor completions aggregated into
	// ONE bus transaction and ONE receiver notification. Values ≤ 1 deliver
	// per message (the classic path); larger values amortize the
	// per-message host overhead — syscall entry, bus arbitration, interrupt,
	// handler dispatch — across the batch. New clamps Batch to RingEntries,
	// since no more descriptors than that can ever be outstanding.
	Batch int
	// Coalesce bounds how long the first message of a partial batch may wait
	// on the virtual clock before the batch is flushed anyway. Zero flushes
	// at the end of the current instant: same-instant writes still aggregate
	// with no added latency. Only meaningful when Batch > 1.
	Coalesce sim.Time
}

// DefaultConfig is a reliable, zero-copy, sequential unicast channel — the
// configuration built in the paper's Figure 3 listing.
func DefaultConfig() Config {
	return Config{
		Reliable:      true,
		Sync:          SyncSequential,
		ZeroCopyRead:  true,
		ZeroCopyWrite: true,
		RingEntries:   64,
		MaxMessage:    64 << 10,
	}
}

// OOBConfig is the runtime's default connectionless out-of-band channel:
// small, staged, reliable — "used to communicate with the Offcode ... for
// initialization and control traffic that is not performance critical".
func OOBConfig() Config {
	return Config{
		Reliable:    true,
		Sync:        SyncSequential,
		RingEntries: 8,
		MaxMessage:  4 << 10,
	}
}

// Errors.
var (
	ErrClosed     = errors.New("channel: closed")
	ErrTooLarge   = errors.New("channel: payload exceeds MaxMessage")
	ErrNoPeer     = errors.New("channel: no connected peer")
	ErrNotAllowed = errors.New("channel: operation not allowed by config")
)

// Stats counts channel activity.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // unreliable overruns
	Queued    uint64 // reliable sends that waited for a descriptor
	Bytes     uint64

	// Interrupts counts receiver notifications raised for handler dispatch:
	// host interrupts and device doorbells. Poll-mode (inbox) deliveries and
	// host→host calls raise none. With batching, one notification can retire
	// a whole batch, so Interrupts ≪ Delivered is the amortization working.
	Interrupts uint64
	// Batches counts batched flushes (each moving ≥ 1 message as one bus
	// transaction); per-message immediate deliveries count none.
	Batches uint64
	// CoalesceFlushes is the subset of Batches flushed by the Coalesce
	// timer rather than by filling up — partial batches paying the latency
	// bound instead of waiting for load.
	CoalesceFlushes uint64
	// Undelivered counts reliable sends accepted by Write but discarded by
	// Close before delivery: descriptor-starved queued sends, batched
	// messages still waiting for a flush, and messages held at a paused
	// endpoint that was closed before Resume replayed them.
	Undelivered uint64
	// Replayed counts messages that arrived while their destination
	// endpoint was paused (a live-mutation quiesce window), were held, and
	// were re-delivered by Resume. Each such message counts in Delivered
	// exactly once, at replay time.
	Replayed uint64
}

// Add accumulates other into s. Cluster bridges use it to merge the two
// legs of a proxied inter-host channel into one stats surface, so batching
// and coalescing remain observable end to end across the link.
func (s *Stats) Add(other Stats) {
	s.Sent += other.Sent
	s.Delivered += other.Delivered
	s.Dropped += other.Dropped
	s.Queued += other.Queued
	s.Bytes += other.Bytes
	s.Interrupts += other.Interrupts
	s.Batches += other.Batches
	s.CoalesceFlushes += other.CoalesceFlushes
	s.Undelivered += other.Undelivered
	s.Replayed += other.Replayed
}

// Handler consumes a delivered payload. The payload slice is borrowed:
// it is valid only for the duration of the call, because the channel
// recycles payload buffers once the handler returns (the zero-alloc
// steady-state path). A handler that needs the bytes later must copy
// them. Poll-mode reads (Read) own their slice outright.
type Handler func(data []byte)

// message is one queued payload. Messages and their buffers are pooled
// per channel: they travel from Write through transmit/deliver and back
// to the free list. id is a per-channel monotonic trace identifier,
// stamped only when tracing is enabled; multicast copies share the
// original's id.
type message struct {
	data []byte
	id   uint64
}

// Endpoint is one end of a channel.
type Endpoint struct {
	ch   *Channel
	name string

	// Execution context: exactly one of host/dev is set.
	host *hostos.Machine
	task *hostos.Task
	dev  *device.Device

	// ringBuf is the host memory region backing this endpoint's receive
	// ring (host endpoints only); DMA deliveries land here and invalidate
	// the corresponding cache lines.
	ringBuf  uint64
	ringSize int

	handler   Handler
	inbox     [][]byte // poll-mode queue (no handler installed)
	seqFns    []func() // sequential dispatch backlog
	dispatchB bool     // a sequential dispatch is running
	closed    bool

	// Batching state: messages credited but not yet flushed, plus the
	// coalescing timer armed when the first of them arrived.
	batchMsgs  []*message
	batchTimer sim.Event

	// Quiesce state: while paused, groups arriving at this endpoint are
	// held — payload copied into a kernel hold buffer, descriptor credits
	// released so senders keep flowing — and Resume replays them in
	// arrival order through the normal delivery path. inflight counts
	// dispatches between deliver entry and completion; Drain callbacks
	// fire once it reaches zero with nothing queued.
	paused    bool
	held      []heldGroup
	heldBytes int
	inflight  int
	drainFns  []func()
}

// heldGroup is one delivery group parked at a paused endpoint: the copied
// payloads, their trace ids, and the host hold-buffer backing them (0 for
// device/loopback endpoints, which hold in device memory already counted).
type heldGroup struct {
	data [][]byte
	ids  []uint64
	buf  uint64
	size int
}

// Name identifies the endpoint for diagnostics.
func (e *Endpoint) Name() string { return e.name }

// Channel is the shared pathway between a creator endpoint and one or more
// connected endpoints.
type Channel struct {
	eng *sim.Engine
	b   *bus.Bus
	cfg Config

	creator *Endpoint
	peers   []*Endpoint

	// credits[dir] is per-direction ring availability; dir 0 is
	// creator→peers (InRing), dir 1 is peers→creator (OutRing).
	credits [2]int
	pending [2][]func() // reliable sends awaiting a descriptor

	stats  Stats
	closed bool

	// tr is the engine's trace shard when CatChannel is enabled, else nil;
	// every trace site guards on tr.On() so a disabled trace costs one
	// branch. nextID hands out message trace ids.
	tr     *obs.Shard
	nextID uint64

	// Free lists for the steady-state hot path: message envelopes (with
	// their payload buffers) and the transient batch slices and gather
	// size lists built per transmit. Everything cycles
	// Write → transmit → deliver → free list, so a saturated channel
	// stops allocating once warm. Poolable state only — an inbox
	// delivery hands its payload buffer to the reader, so the envelope
	// goes back bufferless.
	msgFree   []*message
	batchFree [][]*message
	sizeFree  [][]int
}

// poolCap bounds each free list so an idle channel does not pin the
// high-water mark of a past burst forever.
const poolCap = 256

func (c *Channel) getMsg() *message {
	if n := len(c.msgFree); n > 0 {
		m := c.msgFree[n-1]
		c.msgFree[n-1] = nil
		c.msgFree = c.msgFree[:n-1]
		return m
	}
	return &message{}
}

func (c *Channel) putMsg(m *message) {
	m.data = m.data[:0]
	m.id = 0
	if len(c.msgFree) < poolCap {
		c.msgFree = append(c.msgFree, m)
	}
}

func (c *Channel) getBatch() []*message {
	if n := len(c.batchFree); n > 0 {
		b := c.batchFree[n-1]
		c.batchFree[n-1] = nil
		c.batchFree = c.batchFree[:n-1]
		return b
	}
	return nil
}

// putBatch recycles a delivered batch and its messages. keepData leaves
// each payload buffer with its new owner (the poll-mode inbox) instead
// of the pool.
func (c *Channel) putBatch(b []*message, keepData bool) {
	for i, m := range b {
		if keepData {
			m.data = nil
		}
		c.putMsg(m)
		b[i] = nil
	}
	if len(c.batchFree) < poolCap {
		c.batchFree = append(c.batchFree, b[:0])
	}
}

func (c *Channel) getSizes() []int {
	if n := len(c.sizeFree); n > 0 {
		s := c.sizeFree[n-1]
		c.sizeFree[n-1] = nil
		c.sizeFree = c.sizeFree[:n-1]
		return s
	}
	return nil
}

func (c *Channel) putSizes(s []int) {
	if len(c.sizeFree) < poolCap {
		c.sizeFree = append(c.sizeFree, s[:0])
	}
}

// New creates a channel owned by the creator endpoint.
func New(eng *sim.Engine, b *bus.Bus, cfg Config, creator *Endpoint) (*Channel, error) {
	if cfg.RingEntries <= 0 {
		return nil, fmt.Errorf("channel: ring must have entries")
	}
	if cfg.MaxMessage <= 0 {
		return nil, fmt.Errorf("channel: MaxMessage must be positive")
	}
	if cfg.Batch > cfg.RingEntries {
		cfg.Batch = cfg.RingEntries // no more descriptors can be outstanding
	}
	if cfg.Coalesce < 0 {
		cfg.Coalesce = 0
	}
	ch := &Channel{eng: eng, b: b, cfg: cfg, creator: creator, tr: obs.ForCat(eng, obs.CatChannel)}
	ch.credits[0] = cfg.RingEntries
	ch.credits[1] = cfg.RingEntries
	creator.ch = ch
	creator.allocRing()
	return ch, nil
}

// HostEndpoint builds an endpoint executing on a host machine.
func HostEndpoint(m *hostos.Machine, name string) *Endpoint {
	return &Endpoint{name: name, host: m, task: m.NewTask("chan:" + name)}
}

// DeviceEndpoint builds an endpoint executing on a device.
func DeviceEndpoint(d *device.Device, name string) *Endpoint {
	return &Endpoint{name: name, dev: d}
}

func (e *Endpoint) allocRing() {
	if e.host != nil && e.ringBuf == 0 {
		e.ringSize = RingFootprint(e.ch.cfg)
		e.ringBuf = e.host.Alloc(e.ringSize)
	}
}

// RingFootprint reports the pinned host memory one host-side endpoint of a
// channel with this configuration occupies — what quota accounting should
// book per ring.
func RingFootprint(cfg Config) int {
	size := cfg.RingEntries * cfg.MaxMessage
	if size > 1<<20 {
		size = 1 << 20 // cap modeled footprint
	}
	if size < 0 {
		size = 0
	}
	return size
}

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// Stats returns activity counters.
func (c *Channel) Stats() Stats { return c.stats }

// Creator returns the owning endpoint.
func (c *Channel) Creator() *Endpoint { return c.creator }

// Connect attaches an Offcode endpoint (the paper's ConnectOffcode). The
// second endpoint is constructed at the target implicitly; connecting more
// than one peer requires a multicast channel.
func (c *Channel) Connect(peer *Endpoint) error {
	if c.closed {
		return ErrClosed
	}
	if len(c.peers) >= 1 && !c.cfg.Multicast {
		return fmt.Errorf("%w: unicast channel already connected", ErrNotAllowed)
	}
	peer.ch = c
	peer.allocRing()
	c.peers = append(c.peers, peer)
	return nil
}

// Close tears the channel down; further sends fail. Reliable sends that
// were accepted but not yet delivered — descriptor-starved queued sends and
// batched messages awaiting a flush — are surfaced in Stats.Undelivered
// rather than vanishing, and every host-side ring buffer is returned to its
// machine's memory accounting (channel churn must not leak pinned memory).
func (c *Channel) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.stats.Undelivered += uint64(len(c.pending[0]) + len(c.pending[1]))
	c.pending[0] = nil
	c.pending[1] = nil
	for _, e := range append([]*Endpoint{c.creator}, c.peers...) {
		e.closed = true
		c.stats.Undelivered += uint64(len(e.batchMsgs))
		e.batchMsgs = nil
		e.batchTimer.Cancel()
		e.batchTimer = sim.Event{}
		// Messages held at a paused endpoint die with the channel: they
		// were never handed to a handler, so they are undelivered.
		for _, g := range e.held {
			c.stats.Undelivered += uint64(len(g.data))
			if g.buf != 0 {
				e.host.Free(g.buf, g.size)
			}
		}
		e.held = nil
		e.heldBytes = 0
		e.paused = false
		e.freeRing()
		// Waiters must not hang on a channel that will never drain.
		fns := e.drainFns
		e.drainFns = nil
		for _, fn := range fns {
			fn()
		}
	}
}

// Closed reports whether the channel has been torn down.
func (c *Channel) Closed() bool { return c.closed }

func (e *Endpoint) freeRing() {
	if e.host != nil && e.ringBuf != 0 {
		e.host.Free(e.ringBuf, e.ringSize)
		e.ringBuf, e.ringSize = 0, 0
	}
}

// InstallCallHandler registers the callback "invoked by the runtime
// whenever data is available on the channel, as opposed to requiring the
// application to poll" (§3.2).
func (e *Endpoint) InstallCallHandler(h Handler) { e.handler = h }

// Poll reports how many messages wait in the poll-mode inbox.
func (e *Endpoint) Poll() int { return len(e.inbox) }

// Read pops one message from the poll-mode inbox.
func (e *Endpoint) Read() ([]byte, bool) {
	if len(e.inbox) == 0 {
		return nil, false
	}
	m := e.inbox[0]
	e.inbox = e.inbox[1:]
	return m, true
}

// Write sends payload toward the peer side: creator→all peers, or
// peer→creator. Reliable channels queue when the ring is full; unreliable
// channels drop and count it.
func (e *Endpoint) Write(payload []byte) error {
	c := e.ch
	if c == nil {
		return ErrNoPeer
	}
	m := c.getMsg()
	m.data = append(m.data, payload...)
	return e.write(m)
}

// write consumes msg: it is either forwarded toward transmit (possibly
// deferred behind a descriptor credit) or returned to the pool on
// rejection and drop paths.
func (e *Endpoint) write(msg *message) error {
	c := e.ch
	if c.closed || e.closed {
		c.putMsg(msg)
		return ErrClosed
	}
	if len(msg.data) > c.cfg.MaxMessage {
		c.putMsg(msg)
		return ErrTooLarge
	}
	dir := 0
	if e == c.creator {
		if len(c.peers) == 0 {
			c.putMsg(msg)
			return ErrNoPeer
		}
	} else {
		dir = 1
	}
	if c.tr.On() {
		c.nextID++
		msg.id = c.nextID
	}

	if c.credits[dir] <= 0 {
		if !c.cfg.Reliable {
			c.stats.Dropped++
			if c.tr.On() {
				c.tr.Instant(obs.CatChannel, trDrop, int64(msg.id))
			}
			c.putMsg(msg)
			return nil
		}
		c.stats.Queued++
		if c.tr.On() {
			c.tr.Instant(obs.CatChannel, trQueued, int64(msg.id))
		}
		c.pending[dir] = append(c.pending[dir], func() { c.dispatchSend(e, dir, msg) })
		return nil
	}
	c.credits[dir]--
	c.dispatchSend(e, dir, msg)
	return nil
}

// dispatchSend routes one credited message: straight to the wire on a
// per-message channel, or into the sender's batch accumulator when batching
// is on.
func (c *Channel) dispatchSend(src *Endpoint, dir int, msg *message) {
	if c.cfg.Batch > 1 {
		c.enqueueBatch(src, dir, msg)
		return
	}
	c.transmit(src, dir, append(c.getBatch(), msg))
}

// enqueueBatch accumulates a credited message and flushes when the batch
// fills; the first message of a fresh batch arms the coalescing timer so a
// partial batch waits at most Coalesce before going out anyway.
func (c *Channel) enqueueBatch(src *Endpoint, dir int, msg *message) {
	if src.batchMsgs == nil {
		src.batchMsgs = c.getBatch()
	}
	src.batchMsgs = append(src.batchMsgs, msg)
	if len(src.batchMsgs) >= c.cfg.Batch {
		c.flushBatch(src, dir, false)
		return
	}
	if len(src.batchMsgs) == 1 {
		src.batchTimer = c.eng.Schedule(c.cfg.Coalesce, func() {
			src.batchTimer = sim.Event{}
			c.flushBatch(src, dir, true)
		})
	}
}

// flushBatch sends everything accumulated at src as one transfer.
func (c *Channel) flushBatch(src *Endpoint, dir int, coalesced bool) {
	src.batchTimer.Cancel()
	src.batchTimer = sim.Event{}
	msgs := src.batchMsgs
	src.batchMsgs = nil
	if len(msgs) == 0 || c.closed {
		return
	}
	c.stats.Batches++
	if coalesced {
		c.stats.CoalesceFlushes++
	}
	if c.tr.On() {
		name := trBatch
		if coalesced {
			name = trCoalesce
		}
		c.tr.Instant(obs.CatChannel, name, int64(len(msgs)))
	}
	c.transmit(src, dir, msgs)
}

// transmit models the sender-side cost, the wire, and receiver dispatch for
// a group of messages moving as one transfer. A single message is the
// classic per-message path; larger groups pay one syscall/doorbell, one bus
// transaction per destination, and one receiver notification, with only an
// incremental per-descriptor cost for each extra message.
func (c *Channel) transmit(src *Endpoint, dir int, msgs []*message) {
	var dests []*Endpoint
	if src == c.creator {
		dests = c.peers
	} else {
		dests = []*Endpoint{c.creator}
	}
	n := len(msgs)
	if len(dests) == 0 || n == 0 {
		return
	}
	total := 0
	sizes := c.getSizes()
	for _, m := range msgs {
		total += len(m.data)
		sizes = append(sizes, len(m.data))
	}
	c.stats.Sent += uint64(n)
	c.stats.Bytes += uint64(total)
	if c.tr.On() {
		for _, m := range msgs {
			c.tr.Instant(obs.CatChannel, trSend, int64(m.id))
		}
	}

	afterPrep := func() {
		remaining := len(dests)
		for _, dst := range dests {
			dst := dst
			// Multicast destinations each get private payload copies: a
			// handler that mutates its message must never corrupt what a
			// sibling receiver observes.
			batch := msgs
			if len(dests) > 1 {
				batch = c.getBatch()
				for _, m := range msgs {
					cm := c.getMsg()
					cm.data = append(cm.data, m.data...)
					cm.id = m.id
					batch = append(batch, cm)
				}
			}
			c.wire(src, dst, sizes, total, func() {
				c.deliver(dst, batch, func() {
					remaining--
					if remaining == 0 {
						for i := 0; i < n; i++ {
							c.releaseCredit(dir)
						}
					}
				})
			})
		}
		// The gather list is consumed synchronously by wire's DMA issue;
		// multicast originals die here too, every receiver holding its
		// own private copy by now.
		c.putSizes(sizes)
		if len(dests) > 1 {
			c.putBatch(msgs, false)
		}
	}

	// Sender-side preparation: one kernel entry / firmware dispatch posts
	// the whole group; descriptors beyond the first cost only their post.
	if c.tr.On() {
		h := c.tr.Begin(obs.CatChannel, trTx, int64(n))
		inner := afterPrep
		afterPrep = func() { c.tr.End(h); inner() }
	}
	switch {
	case src.host != nil:
		cycles := uint64(1500) + 300*uint64(n-1) // syscall + descriptor posts
		if !c.cfg.ZeroCopyWrite {
			// Staging copy user→kernel: walks the cache, costs cycles.
			srcAddr := src.host.Alloc(0) // current bump point as a proxy
			src.task.Copy(cache.Kernel, srcAddr, src.ringBuf, total, nil)
			cycles += src.host.CopyCycles(total)
		}
		src.task.Syscall(cycles, afterPrep)
	case src.dev != nil:
		src.dev.Exec(500+100*uint64(n-1), afterPrep)
	default:
		afterPrep()
	}
}

// wire moves the payload between execution domains. A batch rides one
// gather DMA; a single message is a plain transfer.
func (c *Channel) wire(src, dst *Endpoint, sizes []int, total int, done func()) {
	if c.tr.On() {
		name := trDMA
		if len(sizes) > 1 {
			name = trDMAGather
		}
		h := c.tr.Begin(obs.CatChannel, name, int64(total))
		inner := done
		done = func() { c.tr.End(h); inner() }
	}
	if len(sizes) > 1 {
		switch {
		case src.host != nil && dst.dev != nil:
			dst.dev.DMAFromHostGather(src.ringBuf, sizes, done)
		case src.dev != nil && dst.host != nil:
			src.dev.DMAToHostGather(dst.ringBuf, sizes, done)
		case src.dev != nil && dst.dev != nil:
			src.dev.DMAToPeerGather(dst.dev, sizes, done)
		default:
			// host→host: one in-memory copy, no bus.
			src.task.Copy(cache.Kernel, src.ringBuf, dst.ringBuf, total, done)
		}
		return
	}
	switch {
	case src.host != nil && dst.dev != nil:
		// Device pulls from pinned host memory.
		dst.dev.DMAFromHost(src.ringBuf, total, done)
	case src.dev != nil && dst.host != nil:
		// Device pushes into the host ring; lines are invalidated.
		src.dev.DMAToHost(dst.ringBuf, total, done)
	case src.dev != nil && dst.dev != nil:
		src.dev.DMAToPeer(dst.dev, total, done)
	default:
		// host→host: one in-memory copy, no bus.
		src.task.Copy(cache.Kernel, src.ringBuf, dst.ringBuf, total, done)
	}
}

// deliver dispatches a delivered group at the receiver and recycles its
// descriptors. One notification — host interrupt or device doorbell —
// retires the whole group; each message still gets its own handler
// invocation, in order.
func (c *Channel) deliver(dst *Endpoint, msgs []*message, done func()) {
	n := len(msgs)
	discarded := false
	handed := false
	heldOff := false
	dst.inflight++
	finish := func() {
		dst.inflight--
		dst.checkDrained()
		switch {
		case discarded:
			// The destination closed while the group was on the wire: the
			// messages were never handed to a handler or inbox, so they are
			// undelivered, not delivered.
			c.stats.Undelivered += uint64(n)
		case heldOff:
			// Parked at a paused endpoint; Delivered counts at replay.
		default:
			c.stats.Delivered += uint64(n)
		}
		// Handlers have returned (or the inbox owns the payloads): the
		// batch and its envelopes go back to the pool.
		c.putBatch(msgs, handed)
		done()
	}
	if c.tr.On() {
		h := c.tr.Begin(obs.CatChannel, trDeliver, int64(n))
		inner := finish
		finish = func() { c.tr.End(h); inner() }
	}
	run := func(complete func()) {
		if dst.closed {
			discarded = true
			complete()
			return
		}
		if dst.paused {
			heldOff = true
			c.holdGroup(dst, msgs)
			complete()
			return
		}
		if dst.handler == nil {
			handed = true
			for _, m := range msgs {
				dst.inbox = append(dst.inbox, m.data)
			}
			if c.tr.On() {
				for _, m := range msgs {
					c.tr.Instant(obs.CatChannel, trDelivered, int64(m.id))
				}
			}
			complete()
			return
		}
		total := 0
		for _, m := range msgs {
			total += len(m.data)
		}
		invoke := func() {
			for _, m := range msgs {
				dst.handler(m.data)
			}
			if c.tr.On() {
				for _, m := range msgs {
					c.tr.Instant(obs.CatChannel, trDelivered, int64(m.id))
				}
			}
			complete()
		}
		switch {
		case dst.host != nil:
			// One interrupt, then one kernel entry dispatching the group.
			c.stats.Interrupts++
			if c.tr.On() {
				c.tr.Instant(obs.CatChannel, trIRQ, int64(n))
			}
			dst.host.Interrupt(dst.name, 600, func() {
				cycles := uint64(2000) + 500*uint64(n-1)
				// Zero copy still reads the DMA-ed payload once.
				dst.task.TouchRange(cache.Kernel, dst.ringBuf, total)
				if !c.cfg.ZeroCopyRead {
					cycles += dst.host.CopyCycles(total)
				}
				dst.task.Syscall(cycles, invoke)
			})
		case dst.dev != nil:
			c.stats.Interrupts++
			if c.tr.On() {
				c.tr.Instant(obs.CatChannel, trIRQ, int64(n))
			}
			dst.dev.Exec(800+200*uint64(n-1), invoke)
		default:
			invoke()
		}
	}

	if c.cfg.Sync == SyncSequential {
		seq := func() {
			run(func() {
				finish()
				dst.dispatchB = false
				dst.pumpSequential(c)
			})
		}
		dst.seqFns = append(dst.seqFns, seq)
		dst.pumpSequential(c)
		return
	}
	run(finish)
}

func (e *Endpoint) pumpSequential(c *Channel) {
	if e.dispatchB {
		return
	}
	if len(e.seqFns) == 0 {
		e.checkDrained()
		return
	}
	e.dispatchB = true
	fn := e.seqFns[0]
	e.seqFns = e.seqFns[1:]
	fn()
}

// Drain invokes fn once every dispatch already accepted toward this
// endpoint has completed — the in-flight handler invocations a hot-swap
// must let finish before checkpointing, since their effects belong to the
// pre-swap instance. Combined with Pause (which holds new arrivals), a
// drained endpoint is fully quiesced. fn runs immediately when nothing is
// in flight.
func (e *Endpoint) Drain(fn func()) {
	if e.inflight == 0 && !e.dispatchB && len(e.seqFns) == 0 {
		fn()
		return
	}
	e.drainFns = append(e.drainFns, fn)
}

// checkDrained fires pending Drain callbacks once the endpoint is idle.
func (e *Endpoint) checkDrained() {
	if e.inflight > 0 || e.dispatchB || len(e.seqFns) > 0 || len(e.drainFns) == 0 {
		return
	}
	fns := e.drainFns
	e.drainFns = nil
	for _, fn := range fns {
		fn()
	}
}

func (c *Channel) releaseCredit(dir int) {
	if len(c.pending[dir]) > 0 {
		next := c.pending[dir][0]
		c.pending[dir] = c.pending[dir][1:]
		next() // reuse the credit immediately
		return
	}
	c.credits[dir]++
	if c.credits[dir] > c.cfg.RingEntries {
		c.credits[dir] = c.cfg.RingEntries
	}
}

// Pause quiesces delivery to this endpoint for a live-mutation window:
// groups that arrive while paused are held (payloads copied, descriptor
// credits released so senders never stall) instead of dispatched, and the
// far side's coalescing accumulators are flushed so every already-accepted
// message is on the wire rather than parked in a partial batch across the
// mutation. Resume replays the held messages in arrival order.
func (e *Endpoint) Pause() {
	c := e.ch
	if c == nil || c.closed || e.closed || e.paused {
		return
	}
	e.paused = true
	// Drain the senders feeding this endpoint: peers write toward the
	// creator on dir 1, the creator writes toward its peers on dir 0.
	if e == c.creator {
		for _, p := range c.peers {
			c.flushBatch(p, 1, false)
		}
	} else {
		c.flushBatch(c.creator, 0, false)
	}
}

// Paused reports whether the endpoint is quiesced.
func (e *Endpoint) Paused() bool { return e.paused }

// HeldMessages reports how many messages are parked awaiting Resume.
func (e *Endpoint) HeldMessages() int {
	n := 0
	for _, g := range e.held {
		n += len(g.data)
	}
	return n
}

// Resume ends a quiesce window: held groups are re-injected through the
// normal delivery path in arrival order — interrupts, handler dispatch,
// sequential ordering and Delivered counts all happen now, before any
// post-resume arrival — and their kernel hold buffers are released. It
// returns how many messages were replayed.
func (e *Endpoint) Resume() int {
	c := e.ch
	if c == nil || !e.paused {
		return 0
	}
	e.paused = false
	groups := e.held
	e.held = nil
	e.heldBytes = 0
	replayed := 0
	for _, g := range groups {
		if g.buf != 0 {
			e.host.Free(g.buf, g.size)
		}
		if c.closed || e.closed {
			c.stats.Undelivered += uint64(len(g.data))
			continue
		}
		batch := c.getBatch()
		for i, d := range g.data {
			m := c.getMsg()
			m.data = append(m.data, d...)
			m.id = g.ids[i]
			batch = append(batch, m)
		}
		replayed += len(batch)
		c.stats.Replayed += uint64(len(batch))
		if c.tr.On() {
			c.tr.Instant(obs.CatChannel, trReplay, int64(len(batch)))
		}
		// Credits were released when the group was first held, so the
		// replayed delivery completes without touching the rings.
		c.deliver(e, batch, func() {})
	}
	return replayed
}

// holdGroup parks one delivered group at a paused endpoint: payloads are
// copied out of the pooled envelopes into a kernel hold buffer charged
// against the host's memory accounting (device-side endpoints hold in
// device memory already counted by the ring model).
func (c *Channel) holdGroup(dst *Endpoint, msgs []*message) {
	g := heldGroup{}
	for _, m := range msgs {
		g.data = append(g.data, append([]byte(nil), m.data...))
		g.ids = append(g.ids, m.id)
		g.size += len(m.data)
	}
	if dst.host != nil && g.size > 0 {
		g.buf = dst.host.Alloc(g.size)
	}
	dst.held = append(dst.held, g)
	dst.heldBytes += g.size
	if c.tr.On() {
		c.tr.Instant(obs.CatChannel, trHold, int64(len(msgs)))
	}
}
