package device

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hydra/internal/bus"
	"hydra/internal/cache"
	"hydra/internal/hostos"
	"hydra/internal/sim"
	"hydra/internal/stats"
)

func rig() (*sim.Engine, *hostos.Machine, *bus.Bus, *Device) {
	eng := sim.NewEngine(3)
	host := hostos.New(eng, "host", hostos.PentiumIV())
	b := bus.New(eng, bus.DefaultConfig())
	d := New(eng, host, b, XScaleNIC("nic0"))
	return eng, host, b, d
}

func TestClassMatches(t *testing.T) {
	have := Class{ID: 1, Name: "Network Device", Bus: "pci", MAC: "ethernet", Vendor: "3COM"}
	cases := []struct {
		want Class
		ok   bool
	}{
		{Class{}, true}, // all wildcards
		{Class{Name: "Network Device"}, true},
		{Class{Name: "Network Device", Bus: "pci"}, true},
		{Class{Vendor: "3COM"}, true},
		{Class{ID: 2}, false},
		{Class{Name: "Storage Device"}, false},
		{Class{Bus: "usb"}, false},
		{Class{MAC: "token-ring"}, false},
		{Class{Vendor: "Intel"}, false},
	}
	for i, c := range cases {
		if got := c.want.Matches(have); got != c.ok {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.ok)
		}
	}
}

func TestExecSerialized(t *testing.T) {
	eng, _, _, d := rig()
	var first, second sim.Time
	d.Exec(600_000, func() { first = eng.Now() })  // 1 ms at 600 MHz
	d.Exec(600_000, func() { second = eng.Now() }) // queued
	eng.RunAll()
	if first != sim.Millisecond {
		t.Fatalf("first done at %v", first)
	}
	if second != 2*sim.Millisecond {
		t.Fatalf("second done at %v, want 2ms", second)
	}
	if d.BusyTime() != 2*sim.Millisecond {
		t.Fatalf("busy = %v", d.BusyTime())
	}
}

func TestTimerPrecision(t *testing.T) {
	eng, _, _, d := rig()
	var wakes []float64
	tk := d.PeriodicTimer(5*sim.Millisecond, func() {
		wakes = append(wakes, eng.Now().Milliseconds())
	})
	eng.Run(sim.Second)
	tk.Stop()
	gaps := make([]float64, 0, len(wakes)-1)
	for i := 1; i < len(wakes); i++ {
		gaps = append(gaps, wakes[i]-wakes[i-1])
	}
	s := stats.Summarize(gaps)
	if math.Abs(s.Mean-5.0) > 0.05 {
		t.Fatalf("device timer mean gap = %v ms, want ~5", s.Mean)
	}
	// Jitter should be tens of microseconds, far below host tick (1 ms).
	if s.StdDev > 0.1 {
		t.Fatalf("device timer stddev = %v ms, want < 0.1", s.StdDev)
	}
}

func TestPeriodicTimerNoDrift(t *testing.T) {
	eng, _, _, d := rig()
	var times []sim.Time
	tk := d.PeriodicTimer(5*sim.Millisecond, func() {
		times = append(times, eng.Now())
	})
	eng.Run(sim.Second)
	tk.Stop()
	if len(times) < 195 || len(times) > 205 {
		t.Fatalf("got %d firings in 1s, want ~200", len(times))
	}
	// The k-th deadline is k*5ms; firing error must stay bounded (no drift).
	last := times[len(times)-1]
	wantLast := sim.Time(len(times)) * 5 * sim.Millisecond
	drift := float64(last-wantLast) / float64(sim.Millisecond)
	if math.Abs(drift) > 0.5 {
		t.Fatalf("accumulated drift = %vms over %d periods", drift, len(times))
	}
}

func TestLocalMemory(t *testing.T) {
	_, _, _, d := rig()
	a, err := d.AllocMem(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.AllocMem(100)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("allocations overlap: %d %d", a, b)
	}
	if b%16 != 0 {
		t.Fatalf("allocation not aligned: %d", b)
	}
	data := []byte{1, 2, 3, 4}
	if err := d.WriteMem(a, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadMem(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("readback = %v", got)
		}
	}
}

func TestAllocMemExhaustion(t *testing.T) {
	_, _, _, d := rig()
	if _, err := d.AllocMem(d.Config().LocalMemBytes + 1); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
	if _, err := d.AllocMem(0); err == nil {
		t.Fatal("zero alloc succeeded")
	}
	if _, err := d.AllocMem(d.Config().LocalMemBytes); err != nil {
		t.Fatalf("full-size alloc failed: %v", err)
	}
	if _, err := d.AllocMem(16); err == nil {
		t.Fatal("alloc after exhaustion succeeded")
	}
}

func TestMemBoundsChecks(t *testing.T) {
	_, _, _, d := rig()
	end := uint64(d.Config().LocalMemBytes)
	if err := d.WriteMem(end-2, []byte{1, 2, 3}); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if _, err := d.ReadMem(end-2, 3); err == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
}

// pagesHeld counts the pages local memory has allocated.
func (d *Device) pagesHeld() int {
	n := 0
	for _, p := range d.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Local memory is paged on first write and bounds-checked without
// overflow: every out-of-range access is a *MemError, never a panic.
func TestLocalMemoryPaging(t *testing.T) {
	end := uint64(XScaleNIC("").LocalMemBytes)
	cases := []struct {
		name      string
		access    func(d *Device) ([]byte, error) // the bytes it read, if any
		wantErr   bool
		want      []byte
		wantPages int
	}{
		{"write at an overflowing address", func(d *Device) ([]byte, error) {
			return nil, d.WriteMem(1<<63, []byte{1})
		}, true, nil, 0},
		{"read at an overflowing address", func(d *Device) ([]byte, error) {
			return d.ReadMem(1<<63, 1)
		}, true, nil, 0},
		{"write whose end wraps around", func(d *Device) ([]byte, error) {
			return nil, d.WriteMem(math.MaxUint64, []byte{1, 2})
		}, true, nil, 0},
		{"negative read size", func(d *Device) ([]byte, error) {
			return d.ReadMem(0, -1)
		}, true, nil, 0},
		{"empty read at the end", func(d *Device) ([]byte, error) {
			return d.ReadMem(end, 0)
		}, false, []byte{}, 0},
		{"write across a page boundary", func(d *Device) ([]byte, error) {
			if err := d.WriteMem(pageSize-2, []byte{1, 2, 3, 4}); err != nil {
				return nil, err
			}
			return d.ReadMem(pageSize-3, 6)
		}, false, []byte{0, 1, 2, 3, 4, 0}, 2},
		{"read of a page never written", func(d *Device) ([]byte, error) {
			return d.ReadMem(5*pageSize+7, 16)
		}, false, make([]byte, 16), 0},
		{"restore releases every page", func(d *Device) ([]byte, error) {
			if err := d.WriteMem(3*pageSize, []byte{9, 9}); err != nil {
				return nil, err
			}
			d.Crash()
			d.Restore()
			return d.ReadMem(3*pageSize, 2)
		}, false, []byte{0, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, d := rig()
			got, err := tc.access(d)
			if tc.wantErr {
				var me *MemError
				if !errors.As(err, &me) {
					t.Fatalf("err = %v, want a *MemError", err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(got, tc.want) {
				t.Fatalf("read %v, want %v", got, tc.want)
			}
			if n := d.pagesHeld(); n != tc.wantPages {
				t.Fatalf("%d pages held, want %d", n, tc.wantPages)
			}
		})
	}
}

// A device costs no page of host memory until something is written to
// it: a 16 MiB GPU with an allocation but no write holds none.
func TestNewHoldsNoPageUntilFirstWrite(t *testing.T) {
	eng := sim.NewEngine(3)
	host := hostos.New(eng, "host", hostos.PentiumIV())
	d := New(eng, host, bus.New(eng, bus.DefaultConfig()), GPU("gpu0"))
	addr, err := d.AllocMem(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.pagesHeld(); n != 0 {
		t.Fatalf("fresh GPU holds %d pages, want 0", n)
	}
	if err := d.WriteMem(addr+100, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if n := d.pagesHeld(); n != 1 {
		t.Fatalf("GPU holds %d pages after a one-byte write, want 1", n)
	}
}

func TestExports(t *testing.T) {
	_, _, _, d := rig()
	d.Export("hydra.Runtime.GetOffcode", 0x1000)
	ex := d.Exports()
	if ex["hydra.Runtime.GetOffcode"] != 0x1000 {
		t.Fatalf("exports = %v", ex)
	}
	ex["mutate"] = 1 // must not leak into the device
	if _, leaked := d.Exports()["mutate"]; leaked {
		t.Fatal("Exports returned aliased map")
	}
}

func TestDMAToHostInvalidates(t *testing.T) {
	eng, host, b, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(1024)
	task.TouchRange(cache.Kernel, buf, 1024)
	eng.RunAll()
	missBase := host.L2().Stats(cache.Kernel).Misses

	done := false
	d.DMAToHost(buf, 1024, func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("DMA completion not called")
	}
	task.TouchRange(cache.Kernel, buf, 1024)
	if got := host.L2().Stats(cache.Kernel).Misses - missBase; got != 16 {
		t.Fatalf("misses after DMA = %d, want 16 (lines invalidated)", got)
	}
	if got := b.Total().Bytes; got != 1024 {
		t.Fatalf("bus bytes = %d, want 1024", got)
	}
}

func TestDMAFromHostNoInvalidate(t *testing.T) {
	eng, host, _, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(1024)
	task.TouchRange(cache.Kernel, buf, 1024)
	eng.RunAll()
	missBase := host.L2().Stats(cache.Kernel).Misses

	d.DMAFromHost(buf, 1024, nil)
	eng.RunAll()
	task.TouchRange(cache.Kernel, buf, 1024)
	if got := host.L2().Stats(cache.Kernel).Misses - missBase; got != 0 {
		t.Fatalf("DMA read invalidated cache: %d misses", got)
	}
}

func TestDMAToPeersSingleTransaction(t *testing.T) {
	eng, host, b, d := rig()
	gpu := New(eng, host, b, Config{
		Name: "gpu0", Class: Class{ID: 3, Name: "Display Device", Bus: "pci"},
		CPUFreqHz: 500e6, LocalMemBytes: 1 << 20,
	})
	disk := New(eng, host, b, Config{
		Name: "disk0", Class: Class{ID: 2, Name: "Storage Device", Bus: "pci"},
		CPUFreqHz: 400e6, LocalMemBytes: 1 << 20,
	})
	before := b.Total().Transactions
	done := false
	d.DMAToPeers([]*Device{gpu, disk}, 1024, func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("multicast DMA did not complete")
	}
	if got := b.Total().Transactions - before; got != 1 {
		t.Fatalf("multicast used %d transactions, want 1", got)
	}
	// A warm multicast reuses the device's destination list.
	if raceEnabled {
		return
	}
	peers, noop := []*Device{gpu, disk}, func() {}
	if allocs := testing.AllocsPerRun(100, func() {
		d.DMAToPeers(peers, 1024, noop)
		eng.RunAll()
	}); allocs != 0 {
		t.Fatalf("warm multicast made %.1f allocations, want 0", allocs)
	}
}

func TestInterruptHost(t *testing.T) {
	eng, host, _, d := rig()
	fired := false
	d.InterruptHost(2400, func() { fired = true })
	eng.RunAll()
	if !fired {
		t.Fatal("host interrupt not serviced")
	}
	if host.BusyTime() == 0 {
		t.Fatal("host interrupt charged no host CPU time")
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng, _, _, d := rig()
	d.Exec(600e6/2, nil) // 0.5 s busy at 600 MHz
	eng.RunAll()
	eng.Schedule(sim.Second/2, func() {}) // idle until t=1 s
	eng.RunAll()
	// 0.5 s busy at 0.5 W + 0.5 s idle at 0.2 W = 0.35 J.
	e := d.EnergyJoules()
	if math.Abs(e-0.35) > 0.01 {
		t.Fatalf("energy = %v J, want 0.35", e)
	}
}

// --- Failure model ---

func TestCrashDropsWorkAndTimers(t *testing.T) {
	eng, _, b, d := rig()
	var ran, tick int
	d.Exec(600_000, func() { ran++ }) // in flight when the crash hits
	d.PeriodicTimer(sim.Millisecond, func() { tick++ })
	eng.Schedule(500*sim.Microsecond, d.Crash)
	eng.RunAll()
	if ran != 0 {
		t.Fatalf("dead firmware ran %d callbacks", ran)
	}
	if tick != 0 {
		t.Fatalf("dead firmware ticked %d times", tick)
	}
	if !d.crashed || d.Healthy() {
		t.Fatal("device still healthy after a crash")
	}
	// Work submitted while crashed is dropped: no callback runs and no DMA reaches the bus.
	d.Exec(1000, func() { ran++ })
	d.DMAToHost(0, 64, func() { ran++ })
	eng.RunAll()
	if ran != 0 {
		t.Fatal("crashed device executed work")
	}
	if tx := b.Total().Transactions; tx != 0 {
		t.Fatalf("crashed device issued %d bus transactions", tx)
	}
}

// A crash silences the segment in flight even when a Restore lets newer
// work start before the stale segment's event comes due: the stale
// callback never runs, and the segments started after the Restore each run
// once, at their own times, though the stale event fires between them.
func TestCrashedSegmentStaysSilentAfterRestore(t *testing.T) {
	eng, _, _, d := rig()
	var stale int
	d.Exec(600_000, func() { stale++ }) // 1 ms at 600 MHz
	staleDue := d.CyclesToTime(600_000)
	crashAt := 100 * sim.Microsecond
	var shortAt, lastAt []sim.Time
	eng.At(crashAt, func() {
		d.Crash()
		d.Restore()
		d.Exec(60_000, func() { // ends 100 µs later, well before staleDue
			shortAt = append(shortAt, eng.Now())
			// In flight when the stale event fires.
			d.Exec(600_000, func() { lastAt = append(lastAt, eng.Now()) })
		})
	})
	eng.RunAll()
	if stale != 0 {
		t.Fatalf("stale segment ran %d times after the crash", stale)
	}
	wantShort := crashAt + d.CyclesToTime(60_000)
	if len(shortAt) != 1 || shortAt[0] != wantShort {
		t.Fatalf("short segment ran at %v, want once at %v", shortAt, wantShort)
	}
	wantLast := wantShort + d.CyclesToTime(600_000)
	if wantLast <= staleDue {
		t.Fatalf("fixture: last segment (%v) must straddle the stale event (%v)", wantLast, staleDue)
	}
	if len(lastAt) != 1 || lastAt[0] != wantLast {
		t.Fatalf("last segment ran at %v, want once at %v", lastAt, wantLast)
	}
}

func TestRestoreAfterCrashResetsMemory(t *testing.T) {
	eng, _, _, d := rig()
	addr, err := d.AllocMem(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMem(addr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if _, err := d.AllocMem(64); err == nil {
		t.Fatal("allocated on a crashed device")
	}
	d.Restore()
	if !d.Healthy() {
		t.Fatal("device unhealthy after restore")
	}
	if d.MemUsed() != 0 {
		t.Fatalf("crash restore kept %d bytes allocated", d.MemUsed())
	}
	got, err := d.ReadMem(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("crash restore kept memory contents %v", got)
	}
	// Exports survive (firmware ROM).
	d.Export("sym", 0x100)
	d.Crash()
	d.Restore()
	if d.Exports()["sym"] != 0x100 {
		t.Fatal("exports lost across crash")
	}
	// A restored device executes work again.
	ran := false
	d.Exec(1000, func() { ran = true })
	eng.RunAll()
	if !ran {
		t.Fatal("restored device did not run work")
	}
}

func TestStaleTimerDoesNotFireAfterRestore(t *testing.T) {
	eng, _, _, d := rig()
	fired := false
	d.PeriodicTimer(10*sim.Millisecond, func() { fired = true })
	eng.Schedule(sim.Millisecond, func() { d.Crash(); d.Restore() })
	eng.RunAll()
	if fired {
		t.Fatal("timer armed by dead firmware fired after restore")
	}
}

func TestDMAToHostGatherInvalidatesWholeRange(t *testing.T) {
	eng, host, b, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(2048)
	task.TouchRange(cache.Kernel, buf, 2048)
	eng.RunAll()
	missBase := host.L2().Stats(cache.Kernel).Misses
	txBefore := b.Total().Transactions

	done := false
	d.DMAToHostGather(buf, []int{1024, 512, 512}, func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("gather completion not called")
	}
	if tx := b.Total().Transactions - txBefore; tx != 1 {
		t.Fatalf("gather used %d transactions, want 1", tx)
	}
	task.TouchRange(cache.Kernel, buf, 2048)
	if got := host.L2().Stats(cache.Kernel).Misses - missBase; got != 32 {
		t.Fatalf("misses after gather DMA = %d, want 32 (whole range invalidated)", got)
	}
	if got := b.Total().Bytes; got != 2048 {
		t.Fatalf("gather bus bytes = %d, want 2048", got)
	}
}

func TestDMAFromHostGatherNoInvalidate(t *testing.T) {
	eng, host, b, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(1024)
	task.TouchRange(cache.Kernel, buf, 1024)
	eng.RunAll()
	missBase := host.L2().Stats(cache.Kernel).Misses

	d.DMAFromHostGather(buf, []int{512, 512}, nil)
	eng.RunAll()
	task.TouchRange(cache.Kernel, buf, 1024)
	if got := host.L2().Stats(cache.Kernel).Misses - missBase; got != 0 {
		t.Fatalf("gather read invalidated cache: %d misses", got)
	}
	if got := b.Total().Bytes; got != 1024 {
		t.Fatalf("gather bus bytes = %d, want 1024", got)
	}
}

func TestGatherDMADroppedWhenUnhealthy(t *testing.T) {
	eng, host, b, d := rig()
	buf := host.Alloc(1024)
	d.Crash()
	ran := false
	d.DMAToHostGather(buf, []int{1024}, func() { ran = true })
	d.DMAFromHostGather(buf, []int{1024}, func() { ran = true })
	eng.RunAll()
	if ran {
		t.Fatal("dead device completed a gather DMA")
	}
	if tx := b.Total().Transactions; tx != 0 {
		t.Fatalf("dead device issued %d gather transactions", tx)
	}
}

// FreeMem never drives the ledger negative, and a crash restore bumps the
// memory generation so stale teardown accounting can be recognized.
func TestFreeMemClampAndGeneration(t *testing.T) {
	_, _, _, d := rig()
	gen := d.MemGeneration()
	if _, err := d.AllocMem(1000); err != nil {
		t.Fatal(err)
	}
	live := d.MemLive()
	d.Crash()
	d.Restore() // power-on reset wipes the ledger
	if d.MemGeneration() != gen+1 {
		t.Fatalf("generation = %d, want %d", d.MemGeneration(), gen+1)
	}
	if d.MemLive() != 0 {
		t.Fatalf("MemLive after restore = %d", d.MemLive())
	}
	// A stale free against the wiped ledger clamps instead of going
	// negative.
	d.FreeMem(live)
	if d.MemLive() != 0 {
		t.Fatalf("MemLive after stale free = %d", d.MemLive())
	}
	// Restoring a live device is a no-op: memory and the generation stay.
	if _, err := d.AllocMem(500); err != nil {
		t.Fatal(err)
	}
	d.Restore()
	if d.MemGeneration() != gen+1 {
		t.Fatal("restoring a live device bumped the memory generation")
	}
	if d.MemLive() < 500 {
		t.Fatalf("restoring a live device lost memory: %d", d.MemLive())
	}
	d.FreeMem(200)
	if got := d.MemLive(); got < 300 || got > 316 {
		t.Fatalf("MemLive after partial free = %d", got)
	}
}
