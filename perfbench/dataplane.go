package main

import (
	"encoding/binary"
	"fmt"

	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/flowtable"
	"hydra/internal/guid"
	"hydra/internal/loadgen"
	"hydra/internal/objfile"
	"hydra/internal/sim"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
)

// The dataplane workload is the X12 8-host cell: per-host open-loop Zipf
// generators with churn spray 5-tuple records over batched cluster
// bridges to 16 NIC-resident flow-table shards, which log drops,
// evictions and expirations to their hosts through fire-forget syscalls.
// It runs on per-host engines under conservative windows, so the window
// barrier is on the clock. The window bodies run on one worker: with two,
// the process's CPU time swung by ±15% between runs on a shared 2-vCPU
// host, which no bound could absorb. TestDataplaneWorkersAgree checks
// that two workers give the same cell. Unit: one packet processed by a
// shard.
const (
	dpHosts        = 8
	dpShards       = 16
	dpWorkers      = 1
	dpPerHostRate  = 60_000
	dpServiceCyc   = 6000 // firmware cycles per packet on the shard's NIC
	dpFlowsPerHost = 128
	dpSizeBase     = 28
	dpQueueCap     = 256
	dpFrontBatch   = 16 // records per shard that force an eager flush
	dpFlushTicks   = 10 // pacing ticks between full flushes
	dpTick         = 100 * sim.Microsecond
	dpSpan         = 65 * sim.Millisecond // X12 warmup + window
	dpDrain        = 2 * sim.Millisecond
	dpSlice        = 500 * sim.Microsecond
	dpRecBytes     = flowtable.KeyBytes + 8 + 8 // key, seq, sentAt
)

func dpFrontBind(i int) string { return fmt.Sprintf("pb.Front%02d", i) }
func dpFrontPath(i int) string { return "/pb/" + dpFrontBind(i) + ".odf" }
func dpShardBind(i int) string { return fmt.Sprintf("pb.Shard%02d", i) }
func dpShardPath(i int) string { return "/pb/" + dpShardBind(i) + ".odf" }

// dpShard is the glue Offcode around one flow-table pipeline: a bounded
// queue fed by its bridge endpoint, one device Exec per packet, then
// Pipeline.Process and a log syscall per drop, eviction and expiration.
type dpShard struct {
	w     *dataplane
	index int
	rec   *callTimes

	dev  *device.Device
	iss  *syscall.Issuer
	pipe *flowtable.Pipeline

	queue      [dpQueueCap]dpPacket // ring of waiting packets
	head, qlen int
	busy       bool
	complete   func() // completes the head packet; built once, not per Exec

	processed, qdrops, misrouted, logged uint64
	evicted, expired                     uint64 // table counts already logged
	lats                                 []float64
}

type dpPacket struct {
	key    flowtable.Key
	sentAt sim.Time
}

func (s *dpShard) Initialize(ctx *core.Context) error {
	s.dev = ctx.Device
	if s.dev == nil {
		return fmt.Errorf("dataplane: shard %d deployed off-device", s.index)
	}
	s.iss = s.w.issuers[s.dev.Name()]
	s.pipe = flowtable.NewPipeline(s.w.pipeCfg, nil)
	s.complete = s.process
	// About twice the packets one shard processes in a span.
	s.lats = make([]float64, 0, 2*dpHosts*dpPerHostRate*int(dpSpan/sim.Millisecond)/1000/dpShards)
	return nil
}

func (s *dpShard) Start() error { return nil }
func (s *dpShard) Stop() error  { return nil }

func (s *dpShard) ChannelConnected(ep *channel.Endpoint) {
	ep.InstallCallHandler(func(data []byte) {
		for off := 0; off+dpRecBytes <= len(data); off += dpRecBytes {
			b := data[off : off+dpRecBytes]
			key, err := flowtable.DecodeKey(b[:flowtable.KeyBytes])
			if err != nil {
				s.misrouted++
				continue
			}
			if key.Shard(dpShards) != s.index {
				s.misrouted++
			}
			if s.qlen == dpQueueCap {
				s.qdrops++
				continue
			}
			s.queue[(s.head+s.qlen)%dpQueueCap] = dpPacket{key: key,
				sentAt: sim.Time(binary.LittleEndian.Uint64(b[flowtable.KeyBytes+8:]))}
			s.qlen++
		}
		s.pump()
	})
}

func (s *dpShard) pump() {
	if s.busy || s.qlen == 0 {
		return
	}
	s.busy = true
	s.dev.Exec(dpServiceCyc, s.complete)
}

func (s *dpShard) process() {
	s.busy = false
	p := s.queue[s.head]
	s.head, s.qlen = (s.head+1)%dpQueueCap, s.qlen-1
	now := s.dev.Engine().Now()

	start := s.rec.start()
	act, _, hit := s.pipe.Process(p.key, now)
	s.rec.done(spanProcess, start)

	s.processed++
	s.lats = append(s.lats, float64(now-p.sentAt)/float64(sim.Microsecond))
	if !hit { // only a miss inserts, and so evicts or expires
		st := s.pipe.Table().Stats()
		s.log("evict", st.Evicted-s.evicted)
		s.log("expire", st.Expired-s.expired)
		s.evicted, s.expired = st.Evicted, st.Expired
	}
	if act == flowtable.ActDrop {
		s.log("drop", 1)
	}
	s.pump()
}

func (s *dpShard) log(msg string, n uint64) {
	for i := uint64(0); i < n; i++ {
		start := s.rec.start()
		err := s.iss.Log(msg, syscall.ModeFireForget)
		s.rec.done(spanIssue, start)
		if err == nil {
			s.logged++
		}
	}
}

// dpFront is one host's frontend: its generator and pacer run on that
// host's engine and it writes one batched record message per shard.
type dpFront struct {
	w    *dataplane
	host int
	rec  *callTimes

	eps  []*channel.Endpoint // eps[i] reaches shard i (plan edge order)
	gen  *loadgen.Gen
	bufs [][]byte

	offered, shed uint64
}

func (f *dpFront) Initialize(*core.Context) error        { return nil }
func (f *dpFront) Start() error                          { return nil }
func (f *dpFront) Stop() error                           { return nil }
func (f *dpFront) ChannelConnected(ep *channel.Endpoint) { f.eps = append(f.eps, ep) }

func (f *dpFront) route(p loadgen.Packet, now sim.Time) {
	shard := p.Key.Shard(dpShards)
	var rec [dpRecBytes]byte
	p.Key.Put(rec[:])
	binary.LittleEndian.PutUint64(rec[flowtable.KeyBytes:], p.Seq)
	binary.LittleEndian.PutUint64(rec[flowtable.KeyBytes+8:], uint64(now))
	f.bufs[shard] = append(f.bufs[shard], rec[:]...)
	if len(f.bufs[shard]) >= dpFrontBatch*dpRecBytes {
		f.flush(shard)
	}
}

func (f *dpFront) flush(shard int) {
	buf := f.bufs[shard]
	if len(buf) == 0 {
		return
	}
	n := uint64(len(buf) / dpRecBytes)
	start := f.rec.start()
	err := f.eps[shard].Write(buf)
	f.rec.done(spanWrite, start)
	if err == nil {
		f.offered += n
	} else {
		f.shed += n
	}
	f.bufs[shard] = buf[:0]
}

func (f *dpFront) flushAll() {
	for i := range f.bufs {
		f.flush(i)
	}
}

// dataplane is one built X12 cell.
type dataplane struct {
	sys     *testbed.System
	coord   *cluster.Coordinator
	group   *sim.Group
	workers int
	fronts  []*dpFront
	shards  []*dpShard
	pipeCfg flowtable.PipelineConfig
	issuers map[string]*syscall.Issuer

	now, end sim.Time
}

func buildDataplane(seed int64, sp *spans) (instance, error) {
	return newDataplane(seed, sp, dpWorkers)
}

func newDataplane(seed int64, sp *spans, workers int) (*dataplane, error) {
	spec := testbed.Spec{Name: "perfbench-dataplane", EnginePerHost: true}
	for i := 0; i < dpHosts; i++ {
		name := fmt.Sprintf("h%d", i)
		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
			Name:    name,
			Devices: []device.Config{device.XScaleNIC(name + "-nic")},
			Runtime: &core.Config{},
			Syscalls: &testbed.SyscallSpec{Profile: syscall.Profile{Batch: 16,
				Coalesce: 100 * sim.Microsecond, Credits: 256, Workers: 1, RingEntries: 1024}},
		})
	}
	w := &dataplane{workers: workers, issuers: make(map[string]*syscall.Issuer),
		pipeCfg: flowtable.PipelineConfig{
			Table: flowtable.Config{QuotaBytes: 512 * flowtable.EntryBytes, IdleTimeout: 20 * sim.Millisecond},
			Rules: []flowtable.Rule{
				{Match: flowtable.Match{DstPort: 9100}, Action: flowtable.ActDrop},
				{Match: flowtable.Match{DstPort: 80}, Action: flowtable.ActRewrite},
				{Match: flowtable.Match{DstPort: 443}, Action: flowtable.ActRewrite},
				{Match: flowtable.Match{DstPort: 53}, Action: flowtable.ActCount},
			},
			Default: flowtable.ActForward, Backends: 8,
		}}
	var err error
	sp.setup(spanBuild, func() {
		w.sys, err = testbed.New(seed, spec)
		if err != nil {
			return
		}
		bridge := channel.DefaultConfig()
		bridge.ZeroCopyRead, bridge.ZeroCopyWrite = false, false
		bridge.RingEntries, bridge.Batch, bridge.Coalesce = 1024, 32, 50*sim.Microsecond
		w.coord, err = cluster.New(w.sys, cluster.Config{
			AppName: "perfbench", DefaultLink: cluster.DefaultLink(), Channel: bridge})
		if err != nil {
			return
		}
		w.group, err = w.coord.EngineGroup()
		if err != nil {
			return
		}
		err = w.stock(sp)
	})
	if err != nil {
		return nil, fmt.Errorf("dataplane: build: %w", err)
	}
	sp.setup(spanCommit, func() { err = w.commit() })
	if err != nil {
		return nil, fmt.Errorf("dataplane: commit: %w", err)
	}
	for _, e := range w.group.Engines() {
		w.now = max(w.now, e.Now())
	}
	for h, f := range w.fronts {
		f.gen, err = loadgen.New(loadgen.Config{
			Seed: seed*1_000_003 + int64(h)*7919, RateHz: dpPerHostRate, Tick: dpTick,
			Flows: dpFlowsPerHost, SizeBase: dpSizeBase, SizeS: 2.0, SizeV: 1.0, SizeMax: 1 << 20,
			DstPorts: []uint16{80, 443, 53, 9100, 8080, 8443, 1080, 3128,
				5000, 5353, 6000, 7000, 7070, 8000, 9000, 9090},
		})
		if err != nil {
			return nil, fmt.Errorf("dataplane: generator: %w", err)
		}
	}
	w.armPacers(w.now, w.now+dpSpan)
	w.end = w.now + dpSpan + dpDrain
	return w, nil
}

// stock puts every frontend and shard image in every host's depot, so the
// solver may place any shard anywhere.
func (w *dataplane) stock(sp *spans) error {
	for _, hs := range w.sys.Hosts() {
		for _, sc := range hs.Syscalls {
			w.issuers[sc.Device.Name()] = sc.Issuer
		}
	}
	for i := 0; i < dpHosts; i++ {
		w.fronts = append(w.fronts, &dpFront{w: w, host: i, rec: sp.recorder(), bufs: make([][]byte, dpShards)})
	}
	w.shards = make([]*dpShard, dpShards)
	for _, hs := range w.sys.RuntimeHosts() {
		for i, front := range w.fronts {
			g := guid.GUID(13950 + i)
			hs.Depot.PutFile(dpFrontPath(i), []byte(fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`, dpFrontBind(i), g)))
			if err := hs.Depot.RegisterFactory(g, func() any { return front }); err != nil {
				return err
			}
		}
		for i := 0; i < dpShards; i++ {
			bind, g := dpShardBind(i), guid.GUID(13901+i)
			hs.Depot.PutFile(dpShardPath(i), []byte(fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <targets><device-class id="0x0001"><name>Network Device</name></device-class></targets>
</offcode>`, bind, g)))
			if err := hs.Depot.RegisterObject(objfile.Synthesize(bind, g, 8<<10,
				[]string{"hydra.Heap.Alloc", "hydra.Channel.Read"})); err != nil {
				return err
			}
			if err := hs.Depot.RegisterFactory(g, func() any {
				s := &dpShard{w: w, index: i, rec: sp.recorder()}
				w.shards[i] = s
				return s
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// commit deploys a weightless frontend pinned to every host and the shard
// set as unit-load roots the solver spreads evenly; every frontend
// connects to every shard in shard order.
func (w *dataplane) commit() error {
	plan := w.coord.Plan()
	for h := range w.fronts {
		if err := plan.AddRoot(dpFrontPath(h), cluster.PinTo(fmt.Sprintf("h%d", h)), cluster.WithLoad(0)); err != nil {
			return err
		}
	}
	for i := 0; i < dpShards; i++ {
		if err := plan.AddRoot(dpShardPath(i)); err != nil {
			return err
		}
	}
	perEdge := float64(dpPerHostRate) / dpShards
	traffic := cluster.Traffic{BytesPerSec: perEdge * dpRecBytes, MsgsPerSec: perEdge / (dpFrontBatch / 4)}
	for h := range w.fronts {
		for i := 0; i < dpShards; i++ {
			if err := plan.Connect(dpFrontBind(h), dpShardBind(i), traffic); err != nil {
				return err
			}
		}
	}
	var commitErr error
	committed := false
	plan.Commit(func(_ *cluster.Deployment, err error) { commitErr, committed = err, true })
	w.group.Settle()
	if !committed {
		return fmt.Errorf("commit never settled")
	}
	if commitErr != nil {
		return commitErr
	}
	for h, f := range w.fronts {
		if len(f.eps) != dpShards {
			return fmt.Errorf("frontend %d holds %d endpoints, want %d", h, len(f.eps), dpShards)
		}
	}
	for i, s := range w.shards {
		if s == nil || s.pipe == nil {
			return fmt.Errorf("shard %d never deployed", i)
		}
	}
	return nil
}

// armPacers schedules one generator tick per dpTick on every host's own
// engine, flushing all shard buffers every dpFlushTicks and at the end.
func (w *dataplane) armPacers(start, end sim.Time) {
	for h, front := range w.fronts {
		eng := w.sys.Host(fmt.Sprintf("h%d", h)).Eng
		ticks := 0
		t := start // the tick being fired
		route := func(p loadgen.Packet) { front.route(p, t) }
		var tick func()
		tick = func() {
			t0 := front.rec.start()
			front.gen.Emit(route)
			front.rec.done(spanEmit, t0)
			ticks++
			if ticks%dpFlushTicks == 0 {
				front.flushAll()
			}
			if t += dpTick; t < end {
				eng.At(t, tick)
			} else {
				front.flushAll()
			}
		}
		eng.At(start, tick)
	}
}

func (w *dataplane) step() bool {
	if w.now >= w.end {
		return false
	}
	w.now = min(w.now+dpSlice, w.end)
	w.group.Run(w.now, w.workers)
	return true
}

func (w *dataplane) drain() { w.group.Settle() }

// check verifies the cell's ledgers: offered = processed + queue drops,
// nothing shed or misrouted, and one host log line per policy drop,
// eviction and expiration.
func (w *dataplane) check() (*outcome, error) {
	out := &outcome{}
	var offered, shed, processed, qdrops, misrouted, logged uint64
	var events, drops uint64
	var st flowtable.Stats
	d := newDigest()
	for _, f := range w.fronts {
		offered += f.offered
		shed += f.shed
		d.add(f.gen.Digest())
	}
	for _, s := range w.shards {
		processed += s.processed
		qdrops += s.qdrops
		misrouted += s.misrouted
		logged += s.logged
		ts := s.pipe.Table().Stats()
		st.Lookups += ts.Lookups
		st.Hits += ts.Hits
		st.Evicted += ts.Evicted
		st.Expired += ts.Expired
		drops += s.pipe.Stats().Dropped
		d.add(s.pipe.Digest(), s.processed, s.qdrops)
		d.addFloats(s.lats)
		out.lats = append(out.lats, s.lats...)
	}
	var lines uint64
	for _, hs := range w.sys.RuntimeHosts() {
		lines += hs.Runtime.VFS().LogLines()
	}
	d.add(lines)
	switch want := drops + st.Evicted + st.Expired; {
	case offered != processed+qdrops:
		return nil, fmt.Errorf("dataplane: offered %d != processed %d + queue drops %d", offered, processed, qdrops)
	case shed != 0:
		return nil, fmt.Errorf("dataplane: frontends shed %d packets", shed)
	case misrouted != 0:
		return nil, fmt.Errorf("dataplane: %d packets misrouted", misrouted)
	case lines != want || logged != want:
		return nil, fmt.Errorf("dataplane: %d host log lines, %d logged, want %d (drops %d + evictions %d + expirations %d)",
			lines, logged, want, drops, st.Evicted, st.Expired)
	}
	for _, e := range w.group.Engines() {
		events += e.Diag().Fired
	}
	out.units = processed
	out.attempted = offered + shed
	out.failed = qdrops + shed
	out.digest = d.sum()
	out.counts = counts{Events: events, Lookups: st.Lookups, Hits: st.Hits, Evicted: st.Evicted}
	for _, b := range w.coord.Bridges() {
		out.counts.addChannel(b.Stats())
	}
	for _, hs := range w.sys.Hosts() {
		out.addHost(hs.Machine, hs.Bus)
		for _, sc := range hs.Syscalls {
			out.counts.addChannel(sc.Channel.Stats())
			is := sc.Issuer.Stats()
			out.counts.Issued += is.Issued
			out.counts.Denied += is.CreditDenied
		}
	}
	return out, nil
}
