package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestEngineCancelRemovesEagerly(t *testing.T) {
	e := NewEngine(1)
	var evs []Event
	for i := 0; i < 100; i++ {
		i := i
		evs = append(evs, e.Schedule(Time(1000+i), func() { _ = i }))
	}
	if len(e.q) != 100 {
		t.Fatalf("Pending = %d, want 100", len(e.q))
	}
	// Cancel from the middle, the ends, and twice over: the pending set
	// must shrink immediately, not at fire time.
	for i, ev := range evs {
		if i%2 == 0 {
			ev.Cancel()
			ev.Cancel() // double-cancel is a no-op
		}
	}
	if len(e.q) != 50 {
		t.Fatalf("Pending = %d after canceling half, want 50", len(e.q))
	}
	fired := 0
	e.Schedule(5000, func() {})
	for e.Step() {
		fired++
	}
	if fired != 51 {
		t.Fatalf("fired %d events, want the 50 live ones + sentinel", fired)
	}
	if len(e.q) != 0 {
		t.Fatalf("Pending = %d after drain, want 0", len(e.q))
	}
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine(1)
	var later Event
	canceledFired := false
	e.Schedule(10, func() { later.Cancel() })
	later = e.Schedule(20, func() { canceledFired = true })
	e.RunAll()
	if canceledFired {
		t.Fatal("event canceled mid-run still fired")
	}
	if !later.canceled() {
		t.Fatal("Canceled() = false")
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, e.Now()) })
	e.Schedule(20, func() { fired = append(fired, e.Now()) })
	e.Schedule(30, func() { fired = append(fired, e.Now()) })
	e.Run(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want horizon 20", e.Now())
	}
	e.Run(100)
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

// A horizon behind the clock must not rewind it: an event scheduled
// afterwards would otherwise fire before one that already fired.
func TestEngineRunPastHorizonKeepsClock(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.At(20, func() {})
	e.Run(10)
	if got := e.Run(5); got != 10 {
		t.Fatalf("Run(5) after Run(10) returned %v, want 10", got)
	}
	var at Time
	e.Schedule(0, func() { at = e.Now() })
	e.Run(15)
	if at != 10 {
		t.Fatalf("zero-delay event fired at %v, want 10", at)
	}
}

func TestEngineScheduleFromEvent(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Schedule(5, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.RunAll()
	if len(times) != 2 || times[0] != 5 || times[1] != 10 {
		t.Fatalf("chained schedule times = %v", times)
	}
}

func TestEnginePastClamped(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		e.At(3, func() {
			if e.Now() != 10 {
				t.Errorf("past event fired at %v, want clamp to 10", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := e.Tick(10, 0, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tk := ticks // capture for message
			_ = tk
		}
	})
	e.Run(35)
	tk.Stop()
	e.Run(100)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, tt := range ticks {
		if tt != Time(10*(i+1)) {
			t.Fatalf("tick %d at %v, want %v", i, tt, Time(10*(i+1)))
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		rng := e.NewRand(7)
		var out []Time
		var step func()
		step = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				e.Schedule(Time(rng.Intn(1000)+1), step)
			}
		}
		e.Schedule(1, step)
		e.RunAll()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs; RNG not wired")
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock never moves backwards.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine(99)
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// A FIFO keeps order across pushes and pops and, with a backlog that never
// drains, reuses its array instead of growing: the popped prefix is
// compacted before append would reallocate.
func TestFIFOOrderAndReuse(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for i := 0; i < 4; i++ {
		q.Push(next)
		next++
	}
	for round := 0; round < 1000; round++ {
		q.Push(next)
		next++
		if got := q.Pop(); got != want {
			t.Fatalf("round %d: popped %d, want %d", round, got, want)
		}
		want++
	}
	if q.Len() != 4 || cap(q.buf) > 8 {
		t.Fatalf("len %d, cap %d after a steady 4-deep backlog; want 4 and at most 8", q.Len(), cap(q.buf))
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain popped %d, want %d", got, want)
		}
		want++
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue keeps head %d, len %d", q.head, len(q.buf))
	}
}
