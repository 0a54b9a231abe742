package experiments

import (
	"encoding/binary"
	"fmt"
	"strings"

	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/flowtable"
	"hydra/internal/guid"
	"hydra/internal/loadgen"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
)

// X12: the million-flow data plane. A load-balancer/firewall scenario
// where NIC-resident Offcodes run a match-action pipeline over a
// hash-sharded flow table: an open-loop generator (Poisson arrivals,
// heavy-tailed Zipf flow sizes, constant churn) on every host sprays
// packets from that host's frontend; each packet is RSS-routed by its
// 5-tuple hash to one of X12Shards pipeline shards, which the cluster
// solver spreads evenly over the hosts' NICs. Each shard keeps per-flow conntrack state under a
// memory quota (LRU eviction + idle-timeout expiry) and applies cached
// verdicts — forward, rewrite to a hashed backend, drop, count — burning
// fixed firmware cycles per packet on its NIC. Policy drops, evictions
// and expirations are logged as log lines through the X11 fire-forget
// syscall plane, giving an exactly-once reconciliation ledger. The grid
// weak-scales hosts at a fixed 0.8 per-NIC utilization, so aggregate
// sustained msgs/s should scale near-linearly 1→8 hosts while the
// windowed hit rate stays ≥95% under churn. Every cell runs on per-host
// engines under conservative windows. A separate soak cell runs flow
// churn at peak rate across an App.Replace hot-swap of one busy shard,
// extending the exactly-once guarantee to flow-table state (checkpoint
// digest continuity, zero lost or duplicated packets).

// X12Shards is the flow-table shard count packets hash over.
const X12Shards = 16

// x12ServiceCycles is the firmware work per packet on the shard's NIC
// (6000 cycles = 10 µs on the 600 MHz XScale → 100k pkts/s per NIC).
const x12ServiceCycles = 6000

// X12PerHostRate is the offered packet rate per host — ~0.8 of one NIC's
// measured service capacity (≈75k pkts/s: 6000 pipeline cycles plus
// bridge-receive and log-issue overhead per packet), so every weak-scaled
// cell runs at the same per-NIC utilization and the scaling curve
// isolates the sharding.
const X12PerHostRate = 60_000

// X12Warmup and X12Window bracket the measurement: the warmup populates
// the flow tables (compulsory misses), then throughput, hit rate and
// latency are taken over the window only.
const (
	X12Warmup = 15 * sim.Millisecond
	X12Window = 50 * sim.Millisecond
)

// x12Tick is the generator pacing quantum.
const x12Tick = 100 * sim.Microsecond

// x12FrontBatch is the per-shard record count that forces an eager
// frontend flush. Frontends coalesce packet records into batched channel
// messages: the host-side relay path (channel syscalls, context switches,
// cross-host forwarding) costs thousands of cycles per MESSAGE, so
// per-packet messages would cap a 2.4 GHz host near 45k pkts/s.
// Amortizing ~4–16 records per message moves the bottleneck back to the
// NICs, which is what the scaling curve is supposed to measure.
const x12FrontBatch = 16

// x12FlushTicks bounds batching latency: every x12FlushTicks pacing
// ticks (1 ms) each frontend flushes all non-empty shard buffers, in
// shard order, so trickle shards aren't starved behind the batch
// threshold.
const x12FlushTicks = 10

// x12FlowsPerHost is the concurrently active flow population per host
// (weak-scaled with the rate, so per-flow packet spacing is constant).
// Sized so a mean-size flow retires well inside the run: churn is a
// measured rate, not a hypothetical.
const x12FlowsPerHost = 128

// x12SizeBase is the minimum flow size in packets; with the Zipf tail on
// top the mean is ≈30, so steady-state churn misses run ≈3% and the
// windowed hit rate clears 95% with real margin.
const x12SizeBase = 28

// x12QueueCap bounds a shard's local packet queue; overflow is counted
// and shed, keeping the pipeline open-loop under bursts. Sized for the
// arrival bursts batched frontend flushes produce (up to 8 fronts ×
// x12FrontBatch records landing within one coalesce window).
const x12QueueCap = 256

// X12HostGrid is the weak-scaling ladder.
var X12HostGrid = []int{1, 2, 4, 8}

// x12TableConfig is the grid's per-shard conntrack budget: 32 KB of NIC
// SRAM (512 entries) and a 20 ms idle timeout — roomy enough that only
// churned-out flows age away, never live ones.
func x12TableConfig() flowtable.Config {
	return flowtable.Config{QuotaBytes: 512 * flowtable.EntryBytes, IdleTimeout: 20 * sim.Millisecond}
}

// x12Ports is the destination-port population. Port 9100 appears once, so
// ~1/16 of flows hit the firewall rule; 80/443 load-balance; 53 counts.
func x12Ports() []uint16 {
	return []uint16{80, 443, 53, 9100, 8080, 8443, 1080, 3128,
		5000, 5353, 6000, 7000, 7070, 8000, 9000, 9090}
}

// x12Rules is the classifier: block the printer port, load-balance web
// traffic over 8 backends, count DNS, forward the rest.
func x12Rules() []flowtable.Rule {
	return []flowtable.Rule{
		{Match: flowtable.Match{DstPort: 9100}, Action: flowtable.ActDrop},
		{Match: flowtable.Match{DstPort: 80}, Action: flowtable.ActRewrite},
		{Match: flowtable.Match{DstPort: 443}, Action: flowtable.ActRewrite},
		{Match: flowtable.Match{DstPort: 53}, Action: flowtable.ActCount},
	}
}

// x12ChannelProfile is the bridge geometry: staged (copying) rings with
// deep batching, the X7 profile that amortizes per-packet host overhead.
func x12ChannelProfile() channel.Config {
	cfg := channel.DefaultConfig()
	cfg.ZeroCopyRead = false
	cfg.ZeroCopyWrite = false
	cfg.RingEntries = 1024
	cfg.Batch = 32
	cfg.Coalesce = 50 * sim.Microsecond
	return cfg
}

// x12SyscallProfile sizes the per-NIC log plane (PR 9's reverse-RPC
// path): fire-forget lines ride deep batches, far off the data path.
func x12SyscallProfile() syscall.Profile {
	return syscall.Profile{Batch: 16, Coalesce: 100 * sim.Microsecond,
		Credits: 256, Workers: 1, RingEntries: 1024}
}

// x12Packet is one queued packet record inside a shard.
type x12Packet struct {
	key    flowtable.Key
	seq    uint64
	sentAt sim.Time
}

const x12RecBytes = flowtable.KeyBytes + 8 + 8

// x12Shard is one NIC-resident pipeline shard. Packets arriving on its
// bridge endpoint enter a bounded queue; a self-pumping loop burns
// x12ServiceCycles per packet on the device, then runs the match-action
// pipeline and logs drop/evict/expire events to the host via fire-forget
// syscalls. Its checkpoint carries the pipeline (table + verdict
// counters), the queued packets and its own counters, so an App.Replace
// hot-swap resumes exactly where the predecessor stopped — queued packets
// are processed exactly once, by whichever instance holds them when its
// Exec completes.
type x12Shard struct {
	cell  *x12Cell
	index int

	dev  *device.Device
	tr   *obs.Shard
	iss  *syscall.Issuer
	pipe *flowtable.Pipeline

	queue   []x12Packet
	busy    bool
	stopped bool
	ckpt    []byte // restore state stashed until the pipeline exists

	processed, qdrops, misrouted, logged uint64
	inWindow, wHits, wMisses             uint64
	lats                                 []sim.Time // window latencies only
}

func (s *x12Shard) Initialize(ctx *core.Context) error {
	s.dev = ctx.Device
	if s.dev == nil {
		return fmt.Errorf("x12: shard %d deployed off-device", s.index)
	}
	s.tr = obs.ForCat(s.dev.Engine(), obs.CatFlow)
	s.iss = s.cell.issuers[s.dev.Name()]
	s.pipe = flowtable.NewPipeline(s.cell.pipeCfg, s.tr)
	if s.ckpt != nil {
		if err := s.applyCkpt(s.ckpt); err != nil {
			return err
		}
		s.ckpt = nil
	}
	return nil
}

func (s *x12Shard) Start() error {
	s.pump()
	return nil
}

func (s *x12Shard) Stop() error {
	s.stopped = true
	return nil
}

func (s *x12Shard) ChannelConnected(ep *channel.Endpoint) {
	ep.InstallCallHandler(func(data []byte) {
		// One message carries a frontend batch of back-to-back records;
		// decode immediately (the slice may alias the ring).
		for off := 0; off+x12RecBytes <= len(data); off += x12RecBytes {
			b := data[off : off+x12RecBytes]
			key, _ := flowtable.DecodeKey(b[:flowtable.KeyBytes]) // every 13-byte slice is a key
			rec := x12Packet{key: key,
				seq:    binary.LittleEndian.Uint64(b[flowtable.KeyBytes:]),
				sentAt: sim.Time(binary.LittleEndian.Uint64(b[flowtable.KeyBytes+8:]))}
			if rec.key.Shard(s.cell.shards) != s.index {
				s.misrouted++
			}
			if len(s.queue) >= x12QueueCap {
				s.qdrops++
				continue
			}
			s.queue = append(s.queue, rec)
		}
		s.pump()
	})
	s.pump()
}

// pump keeps exactly one Exec outstanding while packets are queued. The
// head is popped at completion, not submission, so a hot-swap checkpoint
// taken mid-service still carries the in-service packet and the stopped
// predecessor's completion aborts without touching it.
func (s *x12Shard) pump() {
	if s.busy || s.stopped || len(s.queue) == 0 || s.dev == nil {
		return
	}
	s.busy = true
	s.dev.Exec(x12ServiceCycles, s.complete)
}

func (s *x12Shard) complete() {
	s.busy = false
	if s.stopped || len(s.queue) == 0 {
		return
	}
	rec := s.queue[0]
	s.queue = s.queue[1:]
	s.process(rec)
	s.pump()
}

func (s *x12Shard) process(rec x12Packet) {
	now := s.dev.Engine().Now()
	t0 := s.pipe.Table().Stats()
	d0 := s.pipe.Stats().Dropped
	_, _, hit := s.pipe.Process(rec.key, now)
	s.processed++
	if now >= s.cell.measureStart && now < s.cell.measureEnd {
		s.inWindow++
		if hit {
			s.wHits++
		} else {
			s.wMisses++
		}
		s.lats = append(s.lats, now-rec.sentAt)
	}
	t1 := s.pipe.Table().Stats()
	s.logEvents("x12 evict", t1.Evicted-t0.Evicted)
	s.logEvents("x12 expire", t1.Expired-t0.Expired)
	s.logEvents("x12 drop", s.pipe.Stats().Dropped-d0)
}

// logEvents sends n fire-forget log lines to the host — the PR 9 syscall
// plane as a data-plane workload. The host's VFS log-line count is the
// reconciliation ledger against the flow-table counters.
func (s *x12Shard) logEvents(msg string, n uint64) {
	if s.iss == nil {
		return
	}
	for i := uint64(0); i < n; i++ {
		if s.iss.Log(msg, syscall.ModeFireForget) == nil {
			s.logged++
		}
	}
}

// checkpoint layout: u32 pipeline length + pipeline, u32 queue length +
// queued records (key, seq, sentAt), then seven counters. Little-endian.
func (s *x12Shard) Checkpoint() []byte {
	if s.pipe == nil {
		return s.ckpt
	}
	pipe := s.pipe.Checkpoint()
	out := make([]byte, 0, 8+len(pipe)+len(s.queue)*x12RecBytes+7*8)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(pipe)))
	out = append(out, pipe...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.queue)))
	for _, rec := range s.queue {
		out = append(out, rec.key.Encode()...)
		out = binary.LittleEndian.AppendUint64(out, rec.seq)
		out = binary.LittleEndian.AppendUint64(out, uint64(rec.sentAt))
	}
	for _, v := range s.counters() {
		out = binary.LittleEndian.AppendUint64(out, *v)
	}
	s.cell.ckptDigest = s.pipe.Digest()
	return out
}

// counters lists the shard's checkpointed counters in layout order.
func (s *x12Shard) counters() []*uint64 {
	return []*uint64{&s.processed, &s.qdrops, &s.misrouted, &s.logged,
		&s.inWindow, &s.wHits, &s.wMisses}
}

func (s *x12Shard) Restore(state []byte) error {
	if s.pipe == nil {
		s.ckpt = append([]byte(nil), state...)
		return nil
	}
	return s.applyCkpt(state)
}

// applyCkpt decodes and validates the whole checkpoint before it touches
// the shard, so a rejected checkpoint leaves the pipeline, queue and
// counters exactly as they were.
func (s *x12Shard) applyCkpt(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("x12: shard checkpoint too short (%d bytes)", len(b))
	}
	pn := int(binary.LittleEndian.Uint32(b))
	off := 4
	if pn > len(b)-off-4 {
		return fmt.Errorf("x12: shard checkpoint truncated at pipeline")
	}
	pipe := b[off : off+pn]
	off += pn
	qn := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if qn > (len(b)-off)/x12RecBytes || len(b) != off+qn*x12RecBytes+7*8 {
		return fmt.Errorf("x12: shard checkpoint is %d bytes, want %d for %d queued",
			len(b), off+qn*x12RecBytes+7*8, qn)
	}
	queue := make([]x12Packet, 0, qn)
	for i := 0; i < qn; i++ {
		key, _ := flowtable.DecodeKey(b[off : off+flowtable.KeyBytes]) // every 13-byte slice is a key
		queue = append(queue, x12Packet{key: key,
			seq:    binary.LittleEndian.Uint64(b[off+flowtable.KeyBytes:]),
			sentAt: sim.Time(binary.LittleEndian.Uint64(b[off+flowtable.KeyBytes+8:]))})
		off += x12RecBytes
	}
	// Pipeline.Restore is itself atomic, so it is the last fallible step.
	if err := s.pipe.Restore(pipe); err != nil {
		return err
	}
	s.queue = queue
	for i, p := range s.counters() {
		*p = binary.LittleEndian.Uint64(b[off+8*i:])
	}
	s.cell.restoreDigest = s.pipe.Digest()
	s.cell.queuedAtSwap = qn
	return nil
}

// x12Front is one host's RSS frontend: its own open-loop generator and
// pacer run on that host's engine, and it sprays packets over one bridge
// endpoint per shard (collected in plan edge order — the X10 invariant).
// Per-host frontends keep every mutable byte of the generation path
// engine-local, so no single host's send path becomes the bottleneck the
// scaling curve measures.
type x12Front struct {
	shardFront
	cell *x12Cell
	host int

	gen  *loadgen.Gen
	bufs [][]byte // per-shard pending records awaiting a batched flush

	offered, shed uint64
}

// route stamps one generated packet into its hash-selected shard's
// pending buffer, flushing eagerly once the buffer holds a full batch.
func (f *x12Front) route(p loadgen.Packet, now sim.Time) {
	shard := p.Key.Shard(f.cell.shards)
	var rec [x12RecBytes]byte
	p.Key.Put(rec[:])
	binary.LittleEndian.PutUint64(rec[flowtable.KeyBytes:], p.Seq)
	binary.LittleEndian.PutUint64(rec[flowtable.KeyBytes+8:], uint64(now))
	f.bufs[shard] = append(f.bufs[shard], rec[:]...)
	if len(f.bufs[shard]) >= x12FrontBatch*x12RecBytes {
		f.flushShard(shard)
	}
}

// flushShard writes one shard's pending records as a single batched
// channel message. Endpoint.Write copies, so the buffer is reused.
func (f *x12Front) flushShard(shard int) {
	buf := f.bufs[shard]
	if len(buf) == 0 {
		return
	}
	n := uint64(len(buf) / x12RecBytes)
	if ep := f.eps[shard]; ep != nil && ep.Write(buf) == nil {
		f.offered += n
	} else {
		f.shed += n
	}
	f.bufs[shard] = buf[:0]
}

// flushAll drains every pending buffer, in shard order.
func (f *x12Front) flushAll() {
	for i := range f.bufs {
		f.flushShard(i)
	}
}

// x12Cell is one X12 world: the sharded cell, its per-host frontends and
// the pipeline shards' shared configuration.
type x12Cell struct {
	*shardCell[*x12Shard]
	fronts []*x12Front

	pipeCfg flowtable.PipelineConfig
	issuers map[string]*syscall.Issuer

	measureStart, measureEnd sim.Time

	// Hot-swap continuity witnesses (soak cell only).
	ckptDigest, restoreDigest uint64
	queuedAtSwap              int
}

// openX12Cell is the one X12 lifecycle up to traffic. It gives each host
// a frontend with its own generator (seeded from genSeed, offering
// X12PerHostRate over flowsPerFront active flows), opens the sharded cell
// (one XScale NIC plus a build-time syscall log plane per host), and
// commits the frontends and the shard set, which the solver spreads
// evenly; each frontend connects to every shard in shard order, so
// fronts[h].eps[i] reaches shard i. withSwap also stocks the shard-00 v2
// hot-swap image.
func openX12Cell(seed int64, hosts, shards int, table flowtable.Config, withSwap bool, trace *obs.Config,
	genSeed int64, flowsPerFront int) (*x12Cell, error) {
	cell := &x12Cell{
		pipeCfg: flowtable.PipelineConfig{
			Table: table, Rules: x12Rules(),
			Default: flowtable.ActForward, Backends: 8,
		},
		issuers: make(map[string]*syscall.Issuer),
	}
	var fronts []cellFront
	for i := 0; i < hosts; i++ {
		gen, err := loadgen.New(loadgen.Config{
			Seed: genSeed + int64(i)*7919, RateHz: X12PerHostRate, Tick: x12Tick,
			Flows: flowsPerFront, SizeBase: x12SizeBase,
			SizeS: 2.0, SizeV: 1.0, SizeMax: 1 << 20,
			DstPorts: x12Ports(),
		})
		if err != nil {
			return nil, err
		}
		f := &x12Front{cell: cell, host: i, gen: gen, bufs: make([][]byte, shards)}
		cell.fronts = append(cell.fronts, f)
		bind := fmt.Sprintf("x12.Front%02d", i)
		fronts = append(fronts, cellFront{bind, "/x12/" + bind + ".odf", guid.GUID(12950 + i), f})
	}
	var swap guid.GUID
	if withSwap {
		swap = 12980
	}
	sc, err := openShardCell(seed, testbed.Spec{Name: "x12-dataplane", EnginePerHost: true, Trace: trace}, hosts,
		&testbed.SyscallSpec{Profile: x12SyscallProfile()},
		cluster.Config{AppName: "x12", DefaultLink: cluster.DefaultLink(), Channel: x12ChannelProfile()},
		fronts, shards, 12901, swap,
		func(i int) *x12Shard { return &x12Shard{cell: cell, index: i} })
	if err != nil {
		return nil, err
	}
	cell.shardCell = sc
	for _, hs := range sc.sys.Hosts() {
		for _, p := range hs.Syscalls {
			cell.issuers[p.Device.Name()] = p.Issuer
		}
	}
	if err := sc.commit(shards, nil, x12Traffic(X12PerHostRate, shards)); err != nil {
		return nil, err
	}
	return cell, nil
}

// x12Traffic is the per-edge estimate the placement solver charges: one
// host's offered rate spread over its edges to every shard.
func x12Traffic(perHostRate, shards int) cluster.Traffic {
	per := float64(perHostRate) / float64(shards) // records/s on this edge
	return cluster.Traffic{
		BytesPerSec: per * x12RecBytes,
		MsgsPerSec:  per / (x12FrontBatch / 4), // records ride batched messages
	}
}

// armPacers schedules one generator tick per x12Tick on every host's own
// engine, so each generator's state stays local to its host's engine.
func (cell *x12Cell) armPacers(start, end sim.Time) {
	for h, front := range cell.fronts {
		ticks := 0
		pace(cell.sys.Host(fmt.Sprintf("h%d", h)).Eng, start, end, x12Tick, func(t sim.Time, last bool) {
			front.gen.Emit(func(p loadgen.Packet) { front.route(p, t) })
			ticks++
			// Flush every x12FlushTicks, and at the end of the stint so
			// no record stays buffered.
			if ticks%x12FlushTicks == 0 || last {
				front.flushAll()
			}
		})
	}
}

// x12FoldDigest folds the per-frontend stream digests, in host order,
// into one cell-level bit-exactness witness.
func x12FoldDigest(fronts []*x12Front) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, f := range fronts {
		for _, c := range binary.LittleEndian.AppendUint64(nil, f.gen.Digest()) {
			h ^= uint64(c)
			h *= prime
		}
	}
	return h
}

// X12Ledger is a cell's lifetime conservation ledger, summed over every
// frontend and shard once the cell has drained.
type X12Ledger struct {
	// Offered counts frontend writes accepted; Shed counts rejected writes
	// and must be zero.
	Offered, Shed uint64
	// Processed / QueueDrops / Misrouted are shard-side counts;
	// Offered == Processed + QueueDrops after the final drain.
	Processed, QueueDrops, Misrouted uint64
	// Flow-table and verdict ledgers.
	Lookups, Hits, Misses, Inserts, Evicted, Expired uint64
	Forwarded, Rewritten, Counted, PolicyDrops       uint64
	// Logged counts fire-forget log syscalls the shards issued; LogLines
	// is the hosts' VFS ledger. Exactly-once: both equal
	// PolicyDrops + Evicted + Expired.
	Logged, LogLines uint64
	// FlowsRetired witnesses the generators' churn.
	FlowsRetired uint64
}

// ledger sums the cell's conservation ledger; it fails if a shard never
// deployed.
func (cell *x12Cell) ledger() (X12Ledger, error) {
	var l X12Ledger
	for _, f := range cell.fronts {
		l.Offered += f.offered
		l.Shed += f.shed
		l.FlowsRetired += f.gen.Retired()
	}
	for i := 0; i < cell.shards; i++ {
		s := cell.workers[cell.bind(i)]
		if s == nil || s.pipe == nil {
			return l, fmt.Errorf("x12: shard %d never deployed", i)
		}
		l.Processed += s.processed
		l.QueueDrops += s.qdrops
		l.Misrouted += s.misrouted
		l.Logged += s.logged
		st := s.pipe.Table().Stats()
		l.Lookups += st.Lookups
		l.Hits += st.Hits
		l.Misses += st.Misses
		l.Inserts += st.Inserts
		l.Evicted += st.Evicted
		l.Expired += st.Expired
		ps := s.pipe.Stats()
		l.Forwarded += ps.Forwarded
		l.Rewritten += ps.Rewritten
		l.Counted += ps.Counted
		l.PolicyDrops += ps.Dropped
	}
	for _, hs := range cell.sys.RuntimeHosts() {
		l.LogLines += hs.Runtime.VFS().LogLines()
	}
	return l, nil
}

// X12Row is one weak-scaling cell's outcome.
type X12Row struct {
	Hosts, Shards int
	// OfferedRateHz is the generator's target rate (hosts × per-host).
	OfferedRateHz int
	X12Ledger
	// InWindow counts packets whose processing completed inside the
	// measurement window; MsgsPerSec = InWindow / window.
	InWindow   uint64
	MsgsPerSec float64
	// HitRate / P50LatUS / P99LatUS are windowed: flow-table hit fraction
	// and send→processed latency quantiles.
	HitRate            float64
	P50LatUS, P99LatUS float64
	// GenDigest is the generators' bit-exactness digest over the emitted
	// stream.
	GenDigest uint64
}

// RunX12Cell runs one weak-scaling cell on per-host engines under
// conservative windows. A non-nil trace attaches the recorder; the
// returned tracer's merged stream includes the CatFlow hit/miss/insert/
// evict/expire/drop instants.
func RunX12Cell(seed int64, hosts int, trace *obs.Config) (*X12Row, *obs.Tracer, error) {
	cell, err := openX12Cell(seed, hosts, X12Shards, x12TableConfig(), false, trace,
		seed+int64(hosts)*101, x12FlowsPerHost)
	if err != nil {
		return nil, nil, err
	}
	cell.measureStart = cell.base + X12Warmup
	cell.measureEnd = cell.measureStart + X12Window
	cell.armPacers(cell.base, cell.measureEnd)
	cell.group.Run(cell.measureEnd+2*sim.Millisecond, 1)
	cell.group.Settle() // full drain: queues, batched bridges, log planes

	ledger, err := cell.ledger()
	if err != nil {
		return nil, nil, err
	}
	row := &X12Row{
		Hosts: hosts, Shards: cell.shards, OfferedRateHz: hosts * X12PerHostRate,
		X12Ledger: ledger,
		GenDigest: x12FoldDigest(cell.fronts),
	}
	var lats []float64
	var wHits, wMisses uint64
	for i := 0; i < cell.shards; i++ {
		s := cell.workers[cell.bind(i)]
		row.InWindow += s.inWindow
		wHits += s.wHits
		wMisses += s.wMisses
		for _, l := range s.lats {
			lats = append(lats, float64(l)/float64(sim.Microsecond))
		}
	}
	if wHits+wMisses > 0 {
		row.HitRate = float64(wHits) / float64(wHits+wMisses)
	}
	row.MsgsPerSec = float64(row.InWindow) / X12Window.Float64Seconds()
	if len(lats) > 0 {
		row.P50LatUS = stats.Quantile(lats, 0.50)
		row.P99LatUS = stats.Quantile(lats, 0.99)
	}
	return row, cell.sys.Tracer, nil
}

// X12Soak is the churn-under-hot-swap outcome: peak-rate flow add/remove
// across an App.Replace of one busy shard, with exactly-once extended to
// flow-table state.
type X12Soak struct {
	Hosts, Shards int
	// Evicted / Expired / PolicyDrops witness real churn pressure (the
	// soak's tight quota forces evictions).
	X12Ledger
	// Lost counts offered packets neither processed nor queue-dropped; it
	// must be zero: no packet vanished or doubled across the swap.
	Lost uint64
	// SwapWindowMS and SwapReplayed are the quiesce span and the client
	// packets held and replayed to the replacement.
	SwapWindowMS float64
	SwapReplayed int
	// QueuedAtSwap counts packets the checkpoint carried in the shard's
	// queue; CkptDigest/RestoreDigest witness bit-exact pipeline state
	// continuity across the swap.
	QueuedAtSwap              int
	CkptDigest, RestoreDigest uint64
	// PostSwapProcessed counts packets the replacement processed.
	PostSwapProcessed uint64
}

// RunX12Soak runs the churn soak: two hosts, four shards, peak rate, a
// deliberately tight conntrack quota (32 entries per shard against ~128
// active flows) so eviction churn is constant — then hot-swaps shard 00
// mid-run under full load.
func RunX12Soak(seed int64) (*X12Soak, error) {
	const (
		hosts    = 2
		shards   = 4
		half     = 20 * sim.Millisecond
		duration = 2 * half
	)
	table := flowtable.Config{QuotaBytes: 32 * flowtable.EntryBytes, IdleTimeout: 20 * sim.Millisecond}
	cell, err := openX12Cell(seed, hosts, shards, table, true, nil, seed, 2*x12FlowsPerHost)
	if err != nil {
		return nil, err
	}
	base := cell.base

	// First half at peak rate, then the hot-swap: the second half's pacers
	// are armed before the mutation, so the swap proceeds under live
	// traffic — writes landing in the quiesce window are held and
	// replayed to the replacement, and the whole half runs inside the
	// mutation's Settle.
	cell.armPacers(base, base+half)
	cell.group.Run(base+half, 1)

	victim := cell.bind(0)
	preSwap := cell.workers[victim].processed
	cell.armPacers(base+half, base+duration)
	swapMS, swapReplayed, err := cell.swap()
	if err != nil {
		return nil, err
	}
	cell.group.Run(base+duration+2*sim.Millisecond, 1)
	cell.group.Settle()

	ledger, err := cell.ledger()
	if err != nil {
		return nil, err
	}
	soak := &X12Soak{
		Hosts: hosts, Shards: shards, X12Ledger: ledger,
		SwapWindowMS:  swapMS,
		SwapReplayed:  swapReplayed,
		QueuedAtSwap:  cell.queuedAtSwap,
		CkptDigest:    cell.ckptDigest,
		RestoreDigest: cell.restoreDigest,
	}
	if soak.Offered > soak.Processed+soak.QueueDrops {
		soak.Lost = soak.Offered - soak.Processed - soak.QueueDrops
	}
	if post := cell.workers[victim].processed; post > preSwap {
		soak.PostSwapProcessed = post - preSwap
	}
	return soak, nil
}

// X12Results holds the weak-scaling grid, the soak leg and the headline.
type X12Results struct {
	Warmup, Window sim.Time
	Rows           []X12Row
	Soak           X12Soak
	// Scaling4 is the 4-host aggregate msgs/s over the 1-host aggregate —
	// the sharding headline (≈4 under weak scaling at fixed utilization).
	Scaling4 float64
}

// RunDataPlane runs the X12 grid, then the churn soak.
func RunDataPlane(seed int64) (*X12Results, error) {
	out := &X12Results{Warmup: X12Warmup, Window: X12Window}
	for _, hosts := range X12HostGrid {
		row, _, err := RunX12Cell(seed, hosts, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: x12 %dh: %w", hosts, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	soak, err := RunX12Soak(seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: x12 soak: %w", err)
	}
	out.Soak = *soak
	var one, four *X12Row
	for i := range out.Rows {
		switch out.Rows[i].Hosts {
		case 1:
			one = &out.Rows[i]
		case 4:
			four = &out.Rows[i]
		}
	}
	if one != nil && four != nil && one.MsgsPerSec > 0 {
		out.Scaling4 = four.MsgsPerSec / one.MsgsPerSec
	}
	return out, nil
}

// CheckDataPlaneShape asserts the qualitative X12 outcome: conservation
// (nothing shed, lost or misrouted), ≥95% hit rate under churn in every
// cell, a real latency distribution, an exactly-once log ledger, near-
// linear weak scaling, and soak continuity across the hot-swap.
func CheckDataPlaneShape(r *X12Results) error {
	var prev float64
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Offered == 0 || row.InWindow == 0 {
			return fmt.Errorf("experiments: x12 %dh: no traffic measured (%+v)", row.Hosts, row)
		}
		if row.Shed != 0 {
			return fmt.Errorf("experiments: x12 %dh: frontend shed %d writes", row.Hosts, row.Shed)
		}
		if row.Misrouted != 0 {
			return fmt.Errorf("experiments: x12 %dh: %d packets misrouted", row.Hosts, row.Misrouted)
		}
		if row.Offered != row.Processed+row.QueueDrops {
			return fmt.Errorf("experiments: x12 %dh: offered %d != processed %d + queue drops %d",
				row.Hosts, row.Offered, row.Processed, row.QueueDrops)
		}
		if row.HitRate < 0.95 {
			return fmt.Errorf("experiments: x12 %dh: hit rate %.4f under 0.95", row.Hosts, row.HitRate)
		}
		if row.P50LatUS <= 0 || row.P99LatUS < row.P50LatUS {
			return fmt.Errorf("experiments: x12 %dh: degenerate latency p50 %.2f p99 %.2f",
				row.Hosts, row.P50LatUS, row.P99LatUS)
		}
		if row.PolicyDrops == 0 || row.Expired == 0 || row.FlowsRetired == 0 {
			return fmt.Errorf("experiments: x12 %dh: churn not exercised (drops %d, expired %d, retired %d)",
				row.Hosts, row.PolicyDrops, row.Expired, row.FlowsRetired)
		}
		want := row.PolicyDrops + row.Evicted + row.Expired
		if row.Logged != want || row.LogLines != want {
			return fmt.Errorf("experiments: x12 %dh: log ledger %d issued / %d host lines vs %d events",
				row.Hosts, row.Logged, row.LogLines, want)
		}
		if row.MsgsPerSec < prev {
			return fmt.Errorf("experiments: x12: throughput not monotone in hosts (%.0f after %.0f)",
				row.MsgsPerSec, prev)
		}
		prev = row.MsgsPerSec
	}
	if r.Scaling4 < 3 {
		return fmt.Errorf("experiments: x12: 4-host aggregate only %.2f× the 1-host rate (want ≥3×)", r.Scaling4)
	}
	s := &r.Soak
	if s.Offered == 0 || s.Lost != 0 || s.Shed != 0 || s.Misrouted != 0 {
		return fmt.Errorf("experiments: x12 soak: conservation violated (%+v)", s)
	}
	if s.SwapWindowMS <= 0 || s.SwapReplayed < 1 {
		return fmt.Errorf("experiments: x12 soak: swap saw no live traffic (%.3f ms, %d replayed)",
			s.SwapWindowMS, s.SwapReplayed)
	}
	if s.CkptDigest == 0 || s.CkptDigest != s.RestoreDigest {
		return fmt.Errorf("experiments: x12 soak: flow-table state diverged across swap (%x vs %x)",
			s.CkptDigest, s.RestoreDigest)
	}
	if s.Evicted == 0 {
		return fmt.Errorf("experiments: x12 soak: tight quota never evicted")
	}
	if s.PostSwapProcessed == 0 {
		return fmt.Errorf("experiments: x12 soak: replacement never processed")
	}
	want := s.PolicyDrops + s.Evicted + s.Expired
	if s.Logged != want || s.LogLines != want {
		return fmt.Errorf("experiments: x12 soak: log ledger %d issued / %d host lines vs %d events",
			s.Logged, s.LogLines, want)
	}
	return nil
}

// Render prints X12 in the evaluation's presentation style.
func (r *X12Results) Render() string {
	var b strings.Builder
	b.WriteString("X12 — Million-flow data plane: sharded match-action pipeline under open-loop churn\n")
	fmt.Fprintf(&b, "  (%d shards, %d B records batched ≤%d per message, %dk pkts/s per host at 0.8 NIC utilization;\n",
		X12Shards, x12RecBytes, x12FrontBatch, X12PerHostRate/1000)
	fmt.Fprintf(&b, "   %v warmup + %v window; per-host engines)\n", r.Warmup, r.Window)
	b.WriteString("  Hosts  offered/s  msgs/s     hit rate  p50(µs)  p99(µs)  inserts  evict  expire  drops  log lines\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5d  %9d  %9.0f  %8.4f  %7.1f  %7.1f  %7d  %5d  %6d  %5d  %9d\n",
			row.Hosts, row.OfferedRateHz, row.MsgsPerSec, row.HitRate,
			row.P50LatUS, row.P99LatUS, row.Inserts, row.Evicted, row.Expired,
			row.PolicyDrops, row.LogLines)
	}
	fmt.Fprintf(&b, "  headline: 4 hosts sustain %.2f× the 1-host aggregate at ≥95%% hit rate under churn\n", r.Scaling4)
	s := &r.Soak
	fmt.Fprintf(&b, "  soak: %d pkts at peak over a shard-00 hot-swap — %d held/replayed in %.3f ms,\n",
		s.Offered, s.SwapReplayed, s.SwapWindowMS)
	fmt.Fprintf(&b, "  %d queued packets carried, table digest %x continuous, %d evictions, 0 lost;\n",
		s.QueuedAtSwap, s.CkptDigest, s.Evicted)
	fmt.Fprintf(&b, "  log ledger %d lines == drops+evictions+expirations — exactly once\n", s.LogLines)
	b.WriteString("  shape: RSS sharding spreads conntrack state and pipeline cycles across NICs; the\n")
	b.WriteString("  quota'd tables absorb churn by aging, and the syscall plane ledgers every loss.\n")
	return b.String()
}
