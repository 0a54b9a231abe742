package sim

import (
	"fmt"
	"testing"
)

// buildGroupWorkload wires nEng engines into a ring: each engine runs a
// local event chain and periodically sends a message one hop around the
// ring with latency >= the group lookahead. Returns the group and a
// per-engine log that records (time, tag) for every action.
func buildGroupWorkload(t *testing.T, nEng int, lookahead Time) (*Group, []*[]string) {
	t.Helper()
	engines := make([]*Engine, nEng)
	for i := range engines {
		engines[i] = NewEngine(int64(100 + i))
	}
	g, err := NewGroup(engines, lookahead)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*[]string, nEng)
	for i := range logs {
		logs[i] = &[]string{}
	}
	for i, e := range engines {
		i, e := i, e
		rng := e.NewRand(1)
		var local func()
		hops := 0
		local = func() {
			*logs[i] = append(*logs[i], fmt.Sprintf("%d local@%v", i, e.Now()))
			hops++
			if hops%3 == 0 {
				// Cross-engine hop: latency strictly >= lookahead.
				dst := engines[(i+1)%nEng]
				lat := lookahead + Time(rng.Intn(int(lookahead)))
				at := e.Now() + lat
				g.Send(e, dst, at, func() {
					*logs[(i+1)%nEng] = append(*logs[(i+1)%nEng],
						fmt.Sprintf("%d recv-from-%d@%v", (i+1)%nEng, i, dst.Now()))
				})
			}
			if hops < 200 {
				e.Schedule(Time(rng.Intn(2000)+1), local)
			}
		}
		e.Schedule(Time(rng.Intn(100)+1), local)
	}
	return g, logs
}

// TestGroupSerialParallelIdentical is the conservative-window
// determinism assertion: the same workload run with one worker and with
// many workers must produce bit-identical per-engine logs and clocks.
// Under -race this also exercises the window goroutines for data races.
func TestGroupSerialParallelIdentical(t *testing.T) {
	const until = Time(500_000)
	run := func(workers int) ([][]string, []Time) {
		g, logs := buildGroupWorkload(t, 4, 20*Microsecond)
		g.Run(until, workers)
		out := make([][]string, len(logs))
		clocks := make([]Time, len(g.Engines()))
		for i, l := range logs {
			out[i] = *l
		}
		for i, e := range g.Engines() {
			clocks[i] = e.Now()
		}
		return out, clocks
	}
	serialLogs, serialClocks := run(1)
	parallelLogs, parallelClocks := run(8)
	for i := range serialLogs {
		if len(serialLogs[i]) == 0 {
			t.Fatalf("engine %d did no work", i)
		}
		if len(serialLogs[i]) != len(parallelLogs[i]) {
			t.Fatalf("engine %d: serial %d entries, parallel %d",
				i, len(serialLogs[i]), len(parallelLogs[i]))
		}
		for j := range serialLogs[i] {
			if serialLogs[i][j] != parallelLogs[i][j] {
				t.Fatalf("engine %d entry %d: serial %q, parallel %q",
					i, j, serialLogs[i][j], parallelLogs[i][j])
			}
		}
	}
	for i := range serialClocks {
		if serialClocks[i] != until || parallelClocks[i] != until {
			t.Fatalf("engine %d clocks: serial %v, parallel %v, want %v",
				i, serialClocks[i], parallelClocks[i], until)
		}
	}
}

// TestGroupSettle drains direct cross-engine call chains in global
// (time, engine index) order.
func TestGroupSettle(t *testing.T) {
	a, b := NewEngine(1), NewEngine(2)
	g, err := NewGroup([]*Engine{a, b}, Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	a.Schedule(10, func() {
		order = append(order, "a10")
		// Direct cross-engine scheduling: allowed during Settle.
		b.At(15, func() { order = append(order, "b15") })
	})
	b.Schedule(12, func() { order = append(order, "b12") })
	a.Schedule(15, func() { order = append(order, "a15") })
	g.Settle()
	want := []string{"a10", "b12", "a15", "b15"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if len(a.q) != 0 || len(b.q) != 0 {
		t.Fatal("Settle left events pending")
	}
}

// TestGroupSettleTie: same-timestamp events across engines settle in
// engine-index order.
func TestGroupSettleTie(t *testing.T) {
	a, b := NewEngine(1), NewEngine(2)
	g, _ := NewGroup([]*Engine{a, b}, Microsecond)
	var order []string
	b.Schedule(10, func() { order = append(order, "b") })
	a.Schedule(10, func() { order = append(order, "a") })
	g.Settle()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("tie order = %v, want [a b]", order)
	}
}

// TestGroupValidation covers constructor error cases.
func TestGroupValidation(t *testing.T) {
	if _, err := NewGroup(nil, Microsecond); err == nil {
		t.Fatal("empty group accepted")
	}
	e := NewEngine(1)
	if _, err := NewGroup([]*Engine{e}, 0); err == nil {
		t.Fatal("zero lookahead accepted")
	}
	if _, err := NewGroup([]*Engine{e, e}, Microsecond); err == nil {
		t.Fatal("duplicate engine accepted")
	}
}

// TestGroupRunFiresAtHorizon: events at exactly until fire, and clocks
// land exactly on until even for idle engines.
func TestGroupRunFiresAtHorizon(t *testing.T) {
	a, b := NewEngine(1), NewEngine(2)
	g, _ := NewGroup([]*Engine{a, b}, Microsecond)
	fired := false
	a.At(1000, func() { fired = true })
	g.Run(1000, 1)
	if !fired {
		t.Fatal("event at the horizon did not fire")
	}
	if a.Now() != 1000 || b.Now() != 1000 {
		t.Fatalf("clocks = %v, %v, want 1000", a.Now(), b.Now())
	}
}

// A warm windowed serial run allocates nothing per window: the window
// bounds stay on the stack and the barrier sorts injections without a
// reflection swapper, with cross-engine sends in every window.
func TestGroupWindowAllocs(t *testing.T) {
	const look = 10 * Microsecond
	a, b := NewEngine(1), NewEngine(2)
	g, err := NewGroup([]*Engine{a, b}, look)
	if err != nil {
		t.Fatal(err)
	}
	// Each engine answers every message with one back to the other, and
	// both start at once, so every window carries two sends.
	hops := 0
	var onA, onB func()
	onA = func() { hops++; g.Send(a, b, a.Now()+look, onB) }
	onB = func() { hops++; g.Send(b, a, b.Now()+look, onA) }
	a.At(1, onA)
	b.At(1, onB)
	var until Time
	run := func() {
		until += 100 * look
		g.Run(until, 1)
	}
	for i := 0; i < 10; i++ {
		run()
	}
	before := hops
	allocs := testing.AllocsPerRun(50, run)
	// AllocsPerRun adds one warm-up call to its 50; each call spans 100
	// windows of two hops.
	if got := hops - before; got < 51*100*2 {
		t.Fatalf("%d hops in 51 runs, want at least %d", got, 51*100*2)
	}
	if allocs != 0 {
		t.Fatalf("%.2f allocations per 100 windows, want 0", allocs)
	}
}
