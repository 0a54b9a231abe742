package sim

import (
	"fmt"
	"testing"
)

// TestGroupInjectionOrder pins the order in which a barrier injects
// cross-engine messages. Engines 0 and 2 each send two messages to engine
// 1 for the window's horizon T, and engine 1 schedules a local event for
// T inside that window. The messages must fire after the sending window
// (after engine 2's sends), behind the local event, in (source, send
// order). With until == T the last window includes its horizon, so the
// local event fires in the sending window and the messages in the next.
func TestGroupInjectionOrder(t *testing.T) {
	const look = 10 * Microsecond
	const T = 1 + look // the first window's horizon
	for _, c := range []struct {
		until Time
		want  []string
	}{
		{3 * T, []string{"0 send", "1 arm", "2 send", "1 local", "0a", "0b", "2a", "2b"}},
		{T, []string{"0 send", "1 arm", "1 local", "2 send", "0a", "0b", "2a", "2b"}},
	} {
		engines := []*Engine{NewEngine(1), NewEngine(2), NewEngine(3)}
		g, err := NewGroup(engines, look)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		note := func(s string) func() { return func() { log = append(log, s) } }
		e1 := engines[1]
		for _, i := range []int{0, 2} {
			tag := fmt.Sprint(i)
			engines[i].At(1, func() {
				note(tag + " send")()
				g.Send(e1, T, note(tag+"a"))
				g.Send(e1, T, note(tag+"b"))
			})
		}
		e1.At(2, func() {
			note("1 arm")()
			e1.At(T, note("1 local"))
		})
		g.Run(c.until, 1)
		if fmt.Sprint(log) != fmt.Sprint(c.want) {
			t.Errorf("until %v: fired %v, want %v", c.until, log, c.want)
		}
		for i, e := range engines {
			if e.Now() != c.until {
				t.Errorf("until %v: engine %d clock %v", c.until, i, e.Now())
			}
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

// A warm windowed run allocates nothing per window, with cross-engine
// sends in every window: the barrier injects them from a buffer that each
// window reuses.
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
	onA = func() { hops++; g.Send(b, a.Now()+look, onB) }
	onB = func() { hops++; g.Send(a, b.Now()+look, onA) }
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
