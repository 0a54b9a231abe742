package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEngine is the original container/heap engine, kept verbatim as
// the ordering oracle: the pooled engine must produce bit-identical
// fire order on any workload.
type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type refEngine struct {
	now   Time
	seq   uint64
	queue refQueue
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		heap.Remove(&e.queue, ev.index)
	}
	ev.fn = nil
}

func (e *refEngine) step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) run(until Time) {
	for {
		if e.queue.Len() == 0 {
			break
		}
		if e.queue[0].at > until {
			e.now = until
			break
		}
		e.step()
	}
}

// fireRec is one observed firing: which logical event, at what time.
type fireRec struct {
	id int
	at Time
}

// TestEngineMatchesReferenceHeap drives the engine and the reference
// heap engine through the same randomized schedule / cancel / step /
// run-to-horizon workload — including events that schedule children
// and same-instant bursts — and asserts the fire sequences are
// identical, id for id, timestamp for timestamp. The script must grow
// the pending set well past a toy size and cancel interior heap nodes,
// or the removal path's sift-up branch would go unchecked.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 987654321} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))

		eng := NewEngine(seed)
		ref := &refEngine{}
		var gotLog, wantLog []fireRec

		// Child plan decided up front per id so both engines' callbacks
		// take identical actions without sharing state.
		type childPlan struct {
			delay Time
			id    int
		}
		plans := map[int]childPlan{}
		nextID := 0

		var live []Event
		var refLive []*refEvent
		maxPending, interiorCancels := 0, 0

		var schedBoth func(d Time)
		schedBoth = func(d Time) {
			id := nextID
			nextID++
			if rng.Intn(4) == 0 {
				plans[id] = childPlan{delay: Time(rng.Intn(500)), id: -1}
			}
			var mk func(log *[]fireRec, child func(Time)) func()
			mk = func(log *[]fireRec, child func(Time)) func() {
				return func() {
					var at Time
					if log == &gotLog {
						at = eng.Now()
					} else {
						at = ref.now
					}
					*log = append(*log, fireRec{id: id, at: at})
					if p, ok := plans[id]; ok {
						child(p.delay)
					}
				}
			}
			// Same-instant bursts matter: draw delays from a small
			// domain part of the time, a huge one otherwise.
			at := eng.Now() + d
			ev := eng.At(at, mk(&gotLog, func(cd Time) {
				cid := nextID // children get ids too, via recursive sched
				_ = cid
				eng.Schedule(cd, func() { gotLog = append(gotLog, fireRec{id: -1, at: eng.Now()}) })
			}))
			rev := ref.at(ref.now+d, mk(&wantLog, func(cd Time) {
				ref.at(ref.now+cd, func() { wantLog = append(wantLog, fireRec{id: -1, at: ref.now}) })
			}))
			live = append(live, ev)
			refLive = append(refLive, rev)
		}

		for op := 0; op < 8000; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				var d Time
				switch rng.Intn(3) {
				case 0:
					d = Time(rng.Intn(32)) // near / same-instant bursts
				case 1:
					d = Time(rng.Intn(10_000))
				default:
					d = Time(rng.Intn(50_000_000)) // far future
				}
				schedBoth(d)
				if len(eng.q) > maxPending {
					maxPending = len(eng.q)
				}
			case r < 7:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					if ev := live[i]; ev.active() && ev.s.pos > 0 && int(ev.s.pos) < len(eng.q)-1 {
						interiorCancels++
					}
					live[i].Cancel()
					ref.cancel(refLive[i])
				}
			case r < 9:
				k := rng.Intn(3) // fewer pops than pushes: the set grows
				for j := 0; j < k; j++ {
					a := eng.Step()
					b := ref.step()
					if a != b {
						t.Fatalf("seed %d: step liveness diverged (engine %v, ref %v)", seed, a, b)
					}
				}
			default:
				horizon := eng.Now() + Time(rng.Intn(100_000))
				eng.Run(horizon)
				ref.run(horizon)
			}
		}
		for eng.Step() {
		}
		for ref.step() {
		}

		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotLog), len(wantLog))
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: fire %d diverged: engine %+v, reference %+v", seed, i, gotLog[i], wantLog[i])
			}
		}
		if len(eng.q) != 0 {
			t.Fatalf("seed %d: %d events still pending after drain", seed, len(eng.q))
		}
		if maxPending < 256 || interiorCancels < 100 {
			t.Fatalf("seed %d: script too tame: peak pending %d, interior cancels %d",
				seed, maxPending, interiorCancels)
		}
	}
}

// active reports whether the event is still pending: not yet fired, not
// canceled.
func (e Event) active() bool { return e.live() && e.s.state == statePending }

// canceled reports whether Cancel took effect on this scheduling (until
// the slot is recycled).
func (e Event) canceled() bool { return e.live() && e.s.state == stateCanceled }

// TestEventHandleSemantics pins down the pooled-handle contract: stale
// handles are inert, Active tracks the pending state, and the zero
// Event does nothing.
func TestEventHandleSemantics(t *testing.T) {
	eng := NewEngine(5)

	var zero Event
	zero.Cancel() // must not panic
	if zero.active() || zero.canceled() {
		t.Fatal("zero Event is not inert")
	}

	fired := 0
	ev := eng.Schedule(10, func() { fired++ })
	if !ev.active() {
		t.Fatal("scheduled event not Active")
	}
	eng.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if ev.active() {
		t.Fatal("fired event still Active")
	}
	ev.Cancel() // cancel after fire: no-op
	if ev.canceled() {
		t.Fatal("Cancel after fire reported Canceled")
	}

	// Recycling: the slot behind ev is reused by the next schedule; the
	// stale handle must not be able to cancel the new occupant.
	ev2 := eng.Schedule(10, func() { fired++ })
	ev.Cancel()
	if !ev2.active() {
		t.Fatal("stale handle canceled a recycled slot's new event")
	}
	eng.RunAll()
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
}

// TestEngineSteadyStateAllocs verifies the zero-allocation claim: a
// self-rescheduling chain and a schedule+cancel churn loop both run
// without allocating once the pool and heap warm up.
func TestEngineSteadyStateAllocs(t *testing.T) {
	eng := NewEngine(11)
	var chain func()
	n := 0
	chain = func() {
		n++
		eng.Schedule(100, chain)
	}
	eng.Schedule(100, chain)
	eng.Run(100 * 100) // warm up pool
	avg := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + 100)
	})
	if avg > 0.1 {
		t.Fatalf("steady-state chain allocates %.2f allocs/step, want ~0", avg)
	}

	// Churn: schedule far-future events and cancel them.
	evs := make([]Event, 0, 64)
	churn := func() {
		evs = evs[:0]
		for i := 0; i < 64; i++ {
			evs = append(evs, eng.Schedule(Time(1000+i*17), func() {}))
		}
		for _, ev := range evs {
			ev.Cancel()
		}
	}
	churn() // warm up
	avg = testing.AllocsPerRun(100, churn)
	if avg > 0.5 {
		t.Fatalf("schedule/cancel churn allocates %.2f allocs/round, want ~0", avg)
	}
}

// churnOps is the shared schedule/cancel-heavy workload for the
// benchmark pair below: a wide far-future pending set, and every fired
// event planting four far-horizon decoys it cancels on the spot. The
// pair quantifies the pooled engine against the container/heap engine
// it replaced on the workload that stressed it most.
const churnPending = 100_000

// BenchmarkChurnEngine drives the churn workload on the real engine.
func BenchmarkChurnEngine(b *testing.B) {
	eng := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		for d := 0; d < 4; d++ {
			eng.Schedule(Time(1_000_000_000+n%997), func() {}).Cancel()
		}
		if n < b.N {
			eng.Schedule(Time(10+n%89), tick)
		}
	}
	for i := 0; i < churnPending; i++ {
		eng.Schedule(Time(1+i)*1000, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(1, tick)
	for n < b.N {
		eng.Run(eng.Now() + 1_000_000)
	}
}

// BenchmarkChurnReferenceHeap drives the identical workload on the
// verbatim pre-rewrite container/heap engine.
func BenchmarkChurnReferenceHeap(b *testing.B) {
	eng := &refEngine{}
	n := 0
	var tick func()
	tick = func() {
		n++
		for d := 0; d < 4; d++ {
			eng.cancel(eng.at(eng.now+Time(1_000_000_000+n%997), func() {}))
		}
		if n < b.N {
			eng.at(eng.now+Time(10+n%89), tick)
		}
	}
	for i := 0; i < churnPending; i++ {
		eng.at(Time(1+i)*1000, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.at(eng.now+1, tick)
	for n < b.N {
		eng.run(eng.now + 1_000_000)
	}
}
