package channel

import (
	"errors"
	"testing"
	"testing/quick"

	"hydra/internal/bus"
	"hydra/internal/cache"
	"hydra/internal/device"
	"hydra/internal/hostos"
	"hydra/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	host *hostos.Machine
	b    *bus.Bus
	nic  *device.Device
	gpu  *device.Device
}

func newRig() *rig {
	eng := sim.NewEngine(21)
	host := hostos.New(eng, "host", hostos.PentiumIV())
	b := bus.New(eng, bus.DefaultConfig())
	return &rig{
		eng: eng, host: host, b: b,
		nic: device.New(eng, host, b, device.XScaleNIC("nic0")),
		gpu: device.New(eng, host, b, device.Config{
			Name:      "gpu0",
			Class:     device.Class{ID: 3, Name: "Display Device", Bus: "pci"},
			CPUFreqHz: 500e6, LocalMemBytes: 4 << 20,
		}),
	}
}

func (r *rig) hostToDev(t *testing.T, cfg Config) (*Channel, *Endpoint, *Endpoint) {
	t.Helper()
	app := HostEndpoint(r.host, "app")
	ch, err := New(r.eng, r.b, cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	oc := DeviceEndpoint(r.nic, "offcode")
	if err := ch.Connect(oc); err != nil {
		t.Fatal(err)
	}
	return ch, app, oc
}

func TestHostToDeviceDelivery(t *testing.T) {
	r := newRig()
	_, app, oc := r.hostToDev(t, DefaultConfig())
	var got []byte
	oc.InstallCallHandler(func(data []byte) { got = data })
	if err := app.Write([]byte("hello device")); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if string(got) != "hello device" {
		t.Fatalf("got %q", got)
	}
}

func TestDeviceToHostDelivery(t *testing.T) {
	r := newRig()
	ch, app, oc := r.hostToDev(t, DefaultConfig())
	var got []byte
	app.InstallCallHandler(func(data []byte) { got = data })
	if err := oc.Write([]byte("spontaneous")); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if string(got) != "spontaneous" {
		t.Fatalf("got %q", got)
	}
	if ch.Stats().Interrupts == 0 || r.host.BusyTime() == 0 {
		t.Fatal("device→host delivery did not interrupt the host")
	}
}

func TestPayloadCopiedNotAliased(t *testing.T) {
	r := newRig()
	_, app, oc := r.hostToDev(t, DefaultConfig())
	var got []byte
	oc.InstallCallHandler(func(data []byte) { got = data })
	buf := []byte{1, 2, 3}
	app.Write(buf)
	buf[0] = 99
	r.eng.RunAll()
	if got[0] != 1 {
		t.Fatal("payload aliased sender buffer")
	}
}

func TestPollMode(t *testing.T) {
	// With no handler installed, deliveries are counted and raise no
	// notification.
	r := newRig()
	ch, app, _ := r.hostToDev(t, DefaultConfig())
	app.Write([]byte("a"))
	app.Write([]byte("bc"))
	r.eng.RunAll()
	if st := ch.Stats(); st.Delivered != 2 || st.Bytes != 3 || st.Interrupts != 0 {
		t.Fatalf("stats = %+v, want 2 delivered, 3 bytes, no interrupts", st)
	}
}

func TestFIFOOrder(t *testing.T) {
	r := newRig()
	_, app, oc := r.hostToDev(t, DefaultConfig())
	var got []byte
	oc.InstallCallHandler(func(data []byte) { got = append(got, data[0]) })
	for i := 0; i < 20; i++ {
		app.Write([]byte{byte(i)})
	}
	r.eng.RunAll()
	if len(got) != 20 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestUnicastRejectsSecondPeer(t *testing.T) {
	r := newRig()
	ch, _, _ := r.hostToDev(t, DefaultConfig())
	if err := ch.Connect(DeviceEndpoint(r.gpu, "second")); err == nil {
		t.Fatal("unicast accepted second peer")
	}
}

func TestReliableNeverDrops(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.RingEntries = 2
	ch, app, oc := r.hostToDev(t, cfg)
	count := 0
	oc.InstallCallHandler(func([]byte) { count++ })
	for i := 0; i < 25; i++ {
		app.Write([]byte{byte(i)})
	}
	r.eng.RunAll()
	st := ch.Stats()
	if count != 25 || st.Delivered != 25 {
		t.Fatalf("delivered %d of 25: %+v", count, st)
	}
	if st.Queued == 0 {
		t.Fatal("expected descriptor exhaustion to queue sends")
	}
}

func TestWriteErrors(t *testing.T) {
	r := newRig()
	ch, app, _ := r.hostToDev(t, DefaultConfig())
	if err := app.Write(make([]byte, DefaultConfig().MaxMessage+1)); err != ErrTooLarge {
		t.Fatalf("oversize err = %v", err)
	}
	ch.Close()
	if err := app.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("closed err = %v", err)
	}
	// Creator with no peer.
	lone := HostEndpoint(r.host, "lone")
	ch2, _ := New(r.eng, r.b, DefaultConfig(), lone)
	_ = ch2
	if err := lone.Write([]byte("x")); err != ErrNoPeer {
		t.Fatalf("no-peer err = %v", err)
	}
	// Endpoint never attached to any channel.
	orphan := HostEndpoint(r.host, "orphan")
	if err := orphan.Write([]byte("x")); err != ErrNoPeer {
		t.Fatalf("orphan err = %v", err)
	}
}

func TestBadConfig(t *testing.T) {
	r := newRig()
	app := HostEndpoint(r.host, "app")
	if _, err := New(r.eng, r.b, Config{RingEntries: 0, MaxMessage: 10}, app); err == nil {
		t.Fatal("zero ring accepted")
	}
	if _, err := New(r.eng, r.b, Config{RingEntries: 4, MaxMessage: 0}, app); err == nil {
		t.Fatal("zero MaxMessage accepted")
	}
}

func TestNewRejectsDeviceCreator(t *testing.T) {
	r := newRig()
	if _, err := New(r.eng, r.b, DefaultConfig(), DeviceEndpoint(r.nic, "dev")); !errors.Is(err, ErrNotAllowed) {
		t.Fatalf("device creator: err = %v, want ErrNotAllowed", err)
	}
}

func TestZeroCopyTouchesLessCache(t *testing.T) {
	run := func(zero bool) uint64 {
		r := newRig()
		cfg := DefaultConfig()
		cfg.ZeroCopyWrite = zero
		cfg.ZeroCopyRead = zero
		_, app, oc := r.hostToDev(t, cfg)
		oc.InstallCallHandler(func([]byte) {})
		for i := 0; i < 50; i++ {
			at := sim.Time(i) * sim.Millisecond
			r.eng.At(at, func() { app.Write(make([]byte, 4096)) })
		}
		r.eng.RunAll()
		return r.host.L2().Stats(cache.Kernel).Accesses
	}
	zc := run(true)
	staged := run(false)
	if staged <= zc {
		t.Fatalf("staged (%d accesses) should touch more cache than zero-copy (%d)", staged, zc)
	}
}

func TestZeroCopyFasterThanStaged(t *testing.T) {
	run := func(zero bool) sim.Time {
		r := newRig()
		cfg := DefaultConfig()
		cfg.ZeroCopyWrite = zero
		cfg.ZeroCopyRead = zero
		_, app, oc := r.hostToDev(t, cfg)
		var doneAt sim.Time
		oc.InstallCallHandler(func([]byte) { doneAt = r.eng.Now() })
		app.Write(make([]byte, 32<<10))
		r.eng.RunAll()
		return doneAt
	}
	if zc, staged := run(true), run(false); staged <= zc {
		t.Fatalf("staged latency %v should exceed zero-copy %v", staged, zc)
	}
}

// --- Batching and interrupt coalescing ---

func TestBatchAggregatesInterruptsAndBusTransactions(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.Batch = 4
	ch, app, oc := r.hostToDev(t, cfg)
	var got []byte
	app.InstallCallHandler(func(d []byte) { got = append(got, d[0]) })
	txBefore := r.b.Total().Transactions
	for i := 0; i < 8; i++ {
		if err := oc.Write([]byte{byte(i)}); err != nil { // device→host
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if len(got) != 8 {
		t.Fatalf("delivered %d of 8", len(got))
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	st := ch.Stats()
	if st.Batches != 2 || st.Interrupts != 2 {
		t.Fatalf("8 msgs at batch 4: batches=%d interrupts=%d, want 2/2", st.Batches, st.Interrupts)
	}
	if st.CoalesceFlushes != 0 {
		t.Fatalf("full batches flushed by timer: %+v", st)
	}
	if tx := r.b.Total().Transactions - txBefore; tx != 2 {
		t.Fatalf("bus transactions = %d, want 2", tx)
	}
}

func TestCoalesceTimerFlushesPartialBatch(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.Batch = 8
	cfg.Coalesce = 100 * sim.Microsecond
	ch, app, oc := r.hostToDev(t, cfg)
	count := 0
	var deliveredAt sim.Time
	app.InstallCallHandler(func([]byte) { count++; deliveredAt = r.eng.Now() })
	for i := 0; i < 3; i++ {
		if err := oc.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if count != 3 {
		t.Fatalf("delivered %d of 3", count)
	}
	st := ch.Stats()
	if st.Batches != 1 || st.CoalesceFlushes != 1 || st.Interrupts != 1 {
		t.Fatalf("partial batch accounting: %+v", st)
	}
	if deliveredAt < cfg.Coalesce {
		t.Fatalf("partial batch delivered at %v, before the %v coalescing bound", deliveredAt, cfg.Coalesce)
	}
}

func TestZeroCoalesceAggregatesSameInstantWrites(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.Batch = 16
	cfg.Coalesce = 0
	ch, app, oc := r.hostToDev(t, cfg)
	count := 0
	app.InstallCallHandler(func([]byte) { count++ })
	// Two bursts at distinct instants: each must flush as its own batch at
	// the end of its instant, not wait for a full ring of 16.
	for i := 0; i < 3; i++ {
		oc.Write([]byte{1})
	}
	r.eng.At(1*sim.Millisecond, func() {
		for i := 0; i < 5; i++ {
			oc.Write([]byte{2})
		}
	})
	r.eng.RunAll()
	if count != 8 {
		t.Fatalf("delivered %d of 8", count)
	}
	st := ch.Stats()
	if st.Batches != 2 || st.Interrupts != 2 {
		t.Fatalf("two same-instant bursts should make two batches: %+v", st)
	}
}

// Batching must cut the per-message host cost at identical message volume:
// fewer interrupts, fewer bus transactions, less host busy time.
func TestBatchingCutsHostCostPerMessage(t *testing.T) {
	run := func(batch int) (sim.Time, uint64, uint64) {
		r := newRig()
		cfg := DefaultConfig()
		cfg.Batch = batch
		cfg.Coalesce = 200 * sim.Microsecond
		ch, app, oc := r.hostToDev(t, cfg)
		count := 0
		app.InstallCallHandler(func([]byte) { count++ })
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * 20 * sim.Microsecond
			r.eng.At(at, func() { oc.Write(make([]byte, 1024)) })
		}
		r.eng.RunAll()
		if count != 200 {
			t.Fatalf("batch %d delivered %d of 200", batch, count)
		}
		return r.host.BusyTime(), ch.Stats().Interrupts, r.b.Total().Transactions
	}
	busy1, irq1, tx1 := run(1)
	busy16, irq16, tx16 := run(16)
	if irq16 >= irq1/4 {
		t.Fatalf("interrupts: batch16 %d not ≪ per-message %d", irq16, irq1)
	}
	if tx16 >= tx1/4 {
		t.Fatalf("bus transactions: batch16 %d not ≪ per-message %d", tx16, tx1)
	}
	if busy16 >= busy1 {
		t.Fatalf("host busy: batch16 %v not below per-message %v", busy16, busy1)
	}
}

// Reliable pending sends must drain FIFO across credit exhaustion and
// recycling, interleaved with fresh writes — with and without batching.
func TestPendingDrainsFIFOAcrossCreditRecycle(t *testing.T) {
	for _, batch := range []int{0, 2} {
		r := newRig()
		cfg := DefaultConfig()
		cfg.RingEntries = 2
		cfg.Batch = batch
		cfg.Coalesce = 10 * sim.Microsecond
		_, app, oc := r.hostToDev(t, cfg)
		var got []byte
		oc.InstallCallHandler(func(d []byte) { got = append(got, d[0]) })
		// First burst exhausts the ring and queues; a later burst arrives
		// while recycled credits are re-feeding the pending queue.
		for i := 0; i < 6; i++ {
			app.Write([]byte{byte(i)})
		}
		r.eng.At(40*sim.Microsecond, func() {
			for i := 6; i < 12; i++ {
				app.Write([]byte{byte(i)})
			}
		})
		r.eng.RunAll()
		if len(got) != 12 {
			t.Fatalf("batch=%d delivered %d of 12", batch, len(got))
		}
		for i, v := range got {
			if v != byte(i) {
				t.Fatalf("batch=%d FIFO broken at %d: %v", batch, i, got)
			}
		}
	}
}

// --- Channel lifecycle regressions ---

// Regression: Close must free the modeled host ring memory, so channel
// churn (failover redeploys) cannot leak pinned memory.
func TestCloseFreesRingMemory(t *testing.T) {
	r := newRig()
	base := r.host.LiveBytes()
	for i := 0; i < 50; i++ {
		app := HostEndpoint(r.host, "app")
		ch, err := New(r.eng, r.b, DefaultConfig(), app)
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Connect(DeviceEndpoint(r.nic, "oc")); err != nil {
			t.Fatal(err)
		}
		if r.host.LiveBytes() <= base {
			t.Fatal("ring allocation not accounted")
		}
		ch.Close()
	}
	if live := r.host.LiveBytes(); live != base {
		t.Fatalf("channel churn leaked %d bytes of modeled host memory", live-base)
	}
}

// Regression: queued-but-undelivered reliable sends must be surfaced in
// Stats on Close, not silently discarded.
func TestCloseSurfacesUndeliveredSends(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.RingEntries = 1
	ch, app, oc := r.hostToDev(t, cfg)
	oc.InstallCallHandler(func([]byte) {})
	for i := 0; i < 5; i++ {
		app.Write([]byte{byte(i)}) // 1 in flight, 4 queued for descriptors
	}
	ch.Close()
	if st := ch.Stats(); st.Undelivered != 4 {
		t.Fatalf("Undelivered = %d, want 4: %+v", st.Undelivered, st)
	}
	r.eng.RunAll() // the in-flight transfer drains without panicking
	// The message that was on the wire at Close reached a closed endpoint:
	// it counts as undelivered too, never as delivered.
	st := ch.Stats()
	if st.Undelivered != 5 || st.Delivered != 0 {
		t.Fatalf("after drain: undelivered=%d delivered=%d, want 5/0", st.Undelivered, st.Delivered)
	}
}

func TestCloseSurfacesBatchedUndelivered(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.Batch = 8
	cfg.Coalesce = sim.Millisecond
	ch, app, oc := r.hostToDev(t, cfg)
	oc.InstallCallHandler(func([]byte) {})
	app.Write([]byte{1})
	app.Write([]byte{2}) // both credited, waiting in the batch accumulator
	ch.Close()
	if st := ch.Stats(); st.Undelivered != 2 {
		t.Fatalf("Undelivered = %d, want 2 batched messages: %+v", st.Undelivered, st)
	}
	r.eng.RunAll() // canceled coalesce timer must not fire
	if st := ch.Stats(); st.Delivered != 0 {
		t.Fatalf("closed channel delivered: %+v", st)
	}
}

// Property: with a reliable channel, every write is eventually delivered in
// order, for arbitrary message counts and ring sizes.
func TestReliableDeliveryProperty(t *testing.T) {
	prop := func(nMsgs, ring, batch uint8) bool {
		n := int(nMsgs)%40 + 1
		rentries := int(ring)%8 + 1
		r := newRig()
		cfg := DefaultConfig()
		cfg.RingEntries = rentries
		cfg.Batch = int(batch) % 5 // 0–1 immediate, 2–4 batched
		cfg.Coalesce = 50 * sim.Microsecond
		_, app, oc := r.hostToDev(t, cfg)
		var got []byte
		oc.InstallCallHandler(func(d []byte) { got = append(got, d[0]) })
		for i := 0; i < n; i++ {
			if err := app.Write([]byte{byte(i)}); err != nil {
				return false
			}
		}
		r.eng.RunAll()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- live-mutation quiesce window: Pause / Drain / Resume ---

// byteLog records delivered payload first-bytes and how often each value
// arrived, so replay tests can assert exactly-once in-order delivery.
type byteLog struct {
	order []byte
	seen  map[byte]int
}

func newByteLog() *byteLog { return &byteLog{seen: map[byte]int{}} }

func (l *byteLog) handler(data []byte) {
	l.order = append(l.order, data[0])
	l.seen[data[0]]++
}

func (l *byteLog) checkExactlyOnce(t *testing.T, n int) {
	t.Helper()
	if len(l.order) != n {
		t.Fatalf("delivered %d messages, want %d: %v", len(l.order), n, l.order)
	}
	for i, v := range l.order {
		if v != byte(i) {
			t.Fatalf("order broken at %d: %v", i, l.order)
		}
	}
	for v, c := range l.seen {
		if c != 1 {
			t.Fatalf("message %d delivered %d times", v, c)
		}
	}
}

func TestPauseHoldsResumeReplaysInOrder(t *testing.T) {
	r := newRig()
	ch, app, oc := r.hostToDev(t, DefaultConfig())
	log := newByteLog()
	oc.InstallCallHandler(log.handler)

	for i := 0; i < 3; i++ {
		if err := app.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if len(log.order) != 3 {
		t.Fatalf("pre-pause delivered %d", len(log.order))
	}

	oc.Pause()
	if !oc.paused {
		t.Fatal("paused false after Pause")
	}
	for i := 3; i < 6; i++ {
		if err := app.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if len(log.order) != 3 {
		t.Fatalf("paused endpoint dispatched: %v", log.order)
	}
	if heldMessages(oc) != 3 {
		t.Fatalf("held %d, want 3", heldMessages(oc))
	}
	if got := ch.Stats().Delivered; got != 3 {
		t.Fatalf("Delivered = %d while held, want 3", got)
	}

	if n := oc.Resume(); n != 3 {
		t.Fatalf("Resume replayed %d, want 3", n)
	}
	r.eng.RunAll()
	log.checkExactlyOnce(t, 6)
	st := ch.Stats()
	if st.Replayed != 3 || st.Delivered != 6 || st.Undelivered != 0 {
		t.Fatalf("stats after replay: %+v", st)
	}
	if heldMessages(oc) != 0 {
		t.Fatalf("held %d after Resume", heldMessages(oc))
	}
}

func TestPauseBatchedReplayExactlyOnce(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.Batch = 4
	ch, app, oc := r.hostToDev(t, cfg)
	log := newByteLog()
	oc.InstallCallHandler(log.handler)

	for i := 0; i < 4; i++ {
		app.Write([]byte{byte(i)})
	}
	r.eng.RunAll()
	oc.Pause()
	for i := 4; i < 12; i++ {
		app.Write([]byte{byte(i)})
	}
	r.eng.RunAll()
	if len(log.order) != 4 {
		t.Fatalf("paused endpoint dispatched: %v", log.order)
	}
	if heldMessages(oc) != 8 {
		t.Fatalf("held %d, want 8", heldMessages(oc))
	}

	if n := oc.Resume(); n != 8 {
		t.Fatalf("Resume replayed %d, want 8", n)
	}
	r.eng.RunAll()
	log.checkExactlyOnce(t, 12)
	st := ch.Stats()
	if st.Replayed != 8 || st.Delivered != 12 {
		t.Fatalf("stats after batched replay: %+v", st)
	}
	if st.Batches < 3 {
		t.Fatalf("Batches = %d, want the three full flushes", st.Batches)
	}
}

// TestPauseFlushesPartialBatch pins the window-entry contract: Pause
// flushes the far side's coalescing accumulator, so messages already
// accepted by Write land in the hold buffer instead of sitting in a
// partial batch across the mutation.
func TestPauseFlushesPartialBatch(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.Batch = 8
	cfg.Coalesce = 10 * sim.Millisecond // far beyond the test horizon
	ch, app, oc := r.hostToDev(t, cfg)
	log := newByteLog()
	oc.InstallCallHandler(log.handler)

	for i := 0; i < 3; i++ {
		app.Write([]byte{byte(i)})
	}
	// The partial batch is parked at the sender awaiting five more
	// messages or a 10ms coalesce timeout; Pause must not wait for either.
	oc.Pause()
	r.eng.RunAll()
	if heldMessages(oc) != 3 {
		t.Fatalf("held %d after pause-flush, want 3", heldMessages(oc))
	}

	if n := oc.Resume(); n != 3 {
		t.Fatalf("Resume replayed %d, want 3", n)
	}
	r.eng.RunAll()
	log.checkExactlyOnce(t, 3)
	if st := ch.Stats(); st.Replayed != 3 || st.Undelivered != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPauseCoalescedArrivalsHeld covers the other interleaving: the
// endpoint pauses first, then a partial batch is flushed into it by the
// coalesce timer. The group must be held and replayed, and the flush
// still counts as a coalesce flush.
func TestPauseCoalescedArrivalsHeld(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	cfg.Batch = 8
	cfg.Coalesce = 100 * sim.Microsecond
	ch, app, oc := r.hostToDev(t, cfg)
	log := newByteLog()
	oc.InstallCallHandler(log.handler)

	oc.Pause()
	for i := 0; i < 3; i++ {
		app.Write([]byte{byte(i)})
	}
	r.eng.RunAll()
	if heldMessages(oc) != 3 {
		t.Fatalf("held %d, want 3", heldMessages(oc))
	}
	if st := ch.Stats(); st.CoalesceFlushes != 1 {
		t.Fatalf("CoalesceFlushes = %d, want 1", st.CoalesceFlushes)
	}

	if n := oc.Resume(); n != 3 {
		t.Fatalf("Resume replayed %d, want 3", n)
	}
	r.eng.RunAll()
	log.checkExactlyOnce(t, 3)
}

// TestDrainWaitsForInflightDispatch checks the checkpoint barrier: a
// Drain registered while a handler is running must not fire until that
// dispatch completes, and an idle endpoint drains immediately.
func TestDrainWaitsForInflightDispatch(t *testing.T) {
	r := newRig()
	_, app, oc := r.hostToDev(t, DefaultConfig())

	idle := false
	oc.Drain(func() { idle = true })
	if !idle {
		t.Fatal("idle endpoint did not drain immediately")
	}

	var drained, inHandler bool
	oc.InstallCallHandler(func(data []byte) {
		inHandler = true
		oc.Drain(func() {
			if inHandler {
				t.Error("drain fired while the dispatch was still running")
			}
			drained = true
		})
		inHandler = false
	})
	if err := app.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if !drained {
		t.Fatal("drain callback never fired")
	}
}

// TestCloseWhilePausedSurfacesUndelivered: messages parked in a quiesce
// window that never ends die with the channel and are accounted for.
func TestCloseWhilePausedSurfacesUndelivered(t *testing.T) {
	r := newRig()
	ch, app, oc := r.hostToDev(t, DefaultConfig())
	oc.InstallCallHandler(func([]byte) {})

	oc.Pause()
	app.Write([]byte{1})
	app.Write([]byte{2})
	r.eng.RunAll()
	if heldMessages(oc) != 2 {
		t.Fatalf("held %d, want 2", heldMessages(oc))
	}
	ch.Close()
	st := ch.Stats()
	if st.Undelivered != 2 || st.Replayed != 0 {
		t.Fatalf("stats after close-while-paused: %+v", st)
	}
	if n := oc.Resume(); n != 0 {
		t.Fatalf("Resume on closed channel replayed %d", n)
	}
}

// heldMessages counts the messages parked at e awaiting Resume.
func heldMessages(e *Endpoint) int {
	n := 0
	for _, g := range e.held {
		n += len(g.data)
	}
	return n
}
