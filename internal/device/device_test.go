package device

import (
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
	if d.health != HealthCrashed || d.Healthy() {
		t.Fatalf("health = %v", d.health)
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
		t.Fatalf("health after restore = %v", d.health)
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

func TestHangPreservesMemory(t *testing.T) {
	_, _, _, d := rig()
	addr, _ := d.AllocMem(16)
	if err := d.WriteMem(addr, []byte{7}); err != nil {
		t.Fatal(err)
	}
	d.Hang()
	if d.health != HealthHung {
		t.Fatalf("health = %v", d.health)
	}
	d.Restore()
	got, _ := d.ReadMem(addr, 1)
	if got[0] != 7 {
		t.Fatal("hang restore lost memory contents")
	}
	if d.MemUsed() == 0 {
		t.Fatal("hang restore lost allocations")
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
	// Hang + restore preserves memory and the generation.
	if _, err := d.AllocMem(500); err != nil {
		t.Fatal(err)
	}
	d.Hang()
	d.Restore()
	if d.MemGeneration() != gen+1 {
		t.Fatal("hang restore bumped the memory generation")
	}
	if d.MemLive() < 500 {
		t.Fatalf("hang restore lost memory: %d", d.MemLive())
	}
	d.FreeMem(200)
	if got := d.MemLive(); got < 300 || got > 316 {
		t.Fatalf("MemLive after partial free = %d", got)
	}
}
