// Package sim provides a deterministic discrete-event simulation engine.
//
// Every hardware and operating-system model in this repository (host CPUs,
// buses, caches, devices, networks) advances on the virtual clock owned by an
// Engine. Events scheduled at the same instant fire in the order they were
// scheduled, which makes runs bit-for-bit reproducible for a fixed seed.
//
// The pending set is a binary heap (heap.go) and event storage is
// pooled: Schedule/At hand out value handles into engine-owned slots
// that are recycled after the event fires or is canceled, so the
// steady-state hot path does not allocate. Generation counters make
// stale handles inert — holding an Event past its fire time is safe.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Float64Seconds reports t as a floating-point number of seconds.
func (t Time) Float64Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Float64Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is a handle to a scheduled callback. It is a small value, not a
// pointer: copies are cheap and compare equal. The zero Event is inert.
//
// The storage behind a handle is pooled. Once the event fires or is
// canceled, the engine may recycle its slot for a future Schedule; a
// generation counter in the handle detects this, so Cancel on a stale
// handle is a safe no-op rather than corruption.
type Event struct {
	s   *slot
	gen uint64
}

// live reports whether the handle still refers to its original
// scheduling (the slot has not been recycled).
func (e Event) live() bool { return e.s != nil && e.s.gen == e.gen }

// Cancel prevents the event from firing and removes it from the pending
// set immediately, so heavily canceled workloads (timeouts, retries) do
// not accumulate dead events until their fire time. Canceling an
// already-fired or already-canceled event — or the zero Event — is a
// no-op.
func (e Event) Cancel() {
	if !e.live() || e.s.state != statePending {
		return
	}
	s := e.s
	own := s.own
	own.q.remove(s)
	s.state = stateCanceled
	own.release(s)
}

// EngineProbe observes the engine's two hot-path transitions. A probe is
// called synchronously on the engine's own goroutine, so implementations
// must not block and must not touch the engine re-entrantly. The engine
// guards every call with a nil check; with no probe attached the hot path
// pays one predictable branch and nothing else.
type EngineProbe interface {
	// EventScheduled fires when At admits an event for virtual time at.
	EventScheduled(at Time)
	// EventFired fires after the clock advances to at, before the
	// event's callback runs.
	EventFired(at Time)
}

// Engine owns the virtual clock and the pending event set.
// It is not safe for concurrent use; models run single-threaded by design so
// that execution order is deterministic. (A Group coordinates several
// engines, each still single-threaded within its goroutine.)
type Engine struct {
	now    Time
	seq    uint64
	q      eventHeap
	free   []*slot
	seed   int64
	minted uint64

	probe EngineProbe
	obsv  any

	// Fired counts events executed so far; useful for run diagnostics.
	Fired uint64
}

// NewEngine returns an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Seed reports the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NewRand derives an independent deterministic random stream. Models that
// need private randomness should take their own stream so that adding a model
// does not perturb the draws seen by others.
func (e *Engine) NewRand(salt int64) *rand.Rand {
	const mix = int64(-0x61c8864680b583eb) // golden-ratio multiplier
	return rand.New(rand.NewSource(e.seed ^ (salt * mix)))
}

// SetProbe attaches (or, with nil, detaches) a hot-path observer.
func (e *Engine) SetProbe(p EngineProbe) { e.probe = p }

// SetObs attaches an opaque observability handle to the engine so
// components built over it can find their trace shard without the sim
// package importing the obs package (see obs.FromEngine).
func (e *Engine) SetObs(v any) { e.obsv = v }

// Obs returns the handle set by SetObs, or nil.
func (e *Engine) Obs() any { return e.obsv }

// Diag is a point-in-time snapshot of engine run diagnostics: progress
// counters, pending-set size, and event-pool occupancy. It is plain data —
// capture it into an obs.Registry rather than poking Engine fields.
type Diag struct {
	// Now is the virtual clock; Fired and Scheduled count events
	// executed and admitted so far.
	Now       Time
	Fired     uint64
	Scheduled uint64
	// Pending is the live pending-set size.
	Pending int
	// SlotsMinted counts event slots ever allocated; SlotsFree is the
	// current free-list depth. Minted minus free is pool occupancy.
	SlotsMinted uint64
	SlotsFree   int
}

// Diag snapshots the engine's run diagnostics.
func (e *Engine) Diag() Diag {
	return Diag{
		Now:         e.now,
		Fired:       e.Fired,
		Scheduled:   e.seq,
		Pending:     len(e.q),
		SlotsMinted: e.minted,
		SlotsFree:   len(e.free),
	}
}

// alloc takes a slot off the free list (or mints one), bumping its
// generation so handles to the previous occupant go stale.
func (e *Engine) alloc() *slot {
	n := len(e.free)
	if n == 0 {
		e.minted++
		s := &slot{own: e}
		s.gen = 1
		return s
	}
	s := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	s.gen++
	return s
}

// release returns a concluded slot to the free list. The closure is
// dropped immediately — a fired event must not pin its captured state
// until GC — but gen and state survive until the slot is reused, so the
// holder's Canceled/Active queries stay meaningful in the interim.
func (e *Engine) release(s *slot) {
	s.fn = nil
	e.free = append(e.free, s)
}

// Schedule arranges for fn to run after delay. A negative delay is treated
// as zero. It returns the event so callers may cancel it.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute virtual time t. Times in the past
// are clamped to now.
func (e *Engine) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	s := e.alloc()
	s.at, s.seq, s.fn, s.state = t, e.seq, fn, statePending
	e.q.push(s)
	if e.probe != nil {
		e.probe.EventScheduled(t)
	}
	return Event{s: s, gen: s.gen}
}

// Step executes the single earliest pending event, advancing the clock.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	s := e.q.pop()
	if s == nil {
		return false
	}
	e.now = s.at
	e.Fired++
	fn := s.fn
	s.state = stateFired
	// Recycle before firing so the callback can schedule into the slot
	// it just vacated — the common chain pattern then ping-pongs between
	// two slots with zero allocation.
	e.release(s)
	if e.probe != nil {
		e.probe.EventFired(e.now)
	}
	fn()
	return true
}

// Run executes events until the queue drains or the clock would pass
// until (events at exactly until still fire). When events remain beyond
// until, the clock advances to until; it never moves backwards. It
// returns the virtual time at exit.
func (e *Engine) Run(until Time) Time {
	for {
		// Peek: do not fire events beyond the horizon.
		next := e.q.peek()
		if next == nil {
			break
		}
		if next.at > until {
			if e.now < until {
				e.now = until
			}
			break
		}
		e.Step()
	}
	return e.now
}

// RunAll executes events until the queue drains.
func (e *Engine) RunAll() Time {
	for e.Step() {
	}
	return e.now
}

// runWindow executes events with at < limit (at <= limit when inclusive)
// and then advances the clock to limit. It is the per-engine leg of a
// Group window: the exclusive bound keeps events at exactly the horizon
// ordered after any cross-engine traffic injected at the barrier.
func (e *Engine) runWindow(limit Time, inclusive bool) {
	for {
		next := e.q.peek()
		if next == nil || next.at > limit || (!inclusive && next.at == limit) {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

// Ticker invokes fn every period until the returned stop function is called.
// The first invocation happens one period from now plus phase.
type Ticker struct {
	stop bool
}

// Stop prevents further ticks.
func (t *Ticker) Stop() { t.stop = true }

// Stopped reports whether Stop was called.
func (t *Ticker) Stopped() bool { return t.stop }

// Tick schedules fn to run every period, starting after phase+period.
func (e *Engine) Tick(period, phase Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive tick period")
	}
	t := &Ticker{}
	var arm func()
	arm = func() {
		e.Schedule(period, func() {
			if t.stop {
				return
			}
			fn()
			if !t.stop {
				arm()
			}
		})
	}
	e.Schedule(phase, arm)
	return t
}
