package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Group coordinates several engines whose only interaction is message
// passing with a minimum latency (the lookahead). It implements
// classic conservative-window parallel discrete-event simulation
// (Chandy–Misra–Bryant style, with a global window instead of per-link
// null messages):
//
//	window horizon h = (earliest pending event across all engines) + lookahead
//
// Within [·, h) every engine can run independently: any message one
// engine sends to another is delayed by at least the lookahead, so its
// delivery time is >= h and it cannot affect the receiver inside the
// current window. Each engine therefore runs to h in its own goroutine,
// the group barriers, buffered cross-engine messages are injected in a
// deterministic order, and the next window begins.
//
// Determinism: messages buffered during a window are sorted by
// (deliverAt, source engine index, per-source send sequence) before
// injection, so receiver-side event sequence numbers — and thus the
// fire order at equal timestamps — are identical whether the window
// bodies ran serially or in parallel. Run(until, 1) ≡ Run(until, N)
// bit-for-bit; the race-enabled tests assert exactly that.
type Group struct {
	engines   []*Engine
	idx       map[*Engine]int
	lookahead Time

	windowed bool
	out      [][]xmsg // per-source buffers, only touched by that source's goroutine
	nsent    []uint64 // per-source send sequence, for deterministic injection order
	inj      []xmsg   // scratch for the barrier-time merge
}

// xmsg is one buffered cross-engine message.
type xmsg struct {
	dst *Engine
	at  Time
	fn  func()
	src int
	seq uint64
}

// NewGroup builds a group over engines with the given lookahead — the
// minimum latency of any cross-engine message. A non-positive lookahead
// would make the window empty, so it is rejected.
func NewGroup(engines []*Engine, lookahead Time) (*Group, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("sim: group needs at least one engine")
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: group lookahead must be positive, got %v", lookahead)
	}
	g := &Group{
		engines:   engines,
		idx:       make(map[*Engine]int, len(engines)),
		lookahead: lookahead,
		out:       make([][]xmsg, len(engines)),
		nsent:     make([]uint64, len(engines)),
	}
	for i, e := range engines {
		if _, dup := g.idx[e]; dup {
			return nil, fmt.Errorf("sim: engine %d appears twice in group", i)
		}
		g.idx[e] = i
	}
	return g, nil
}

// Engines returns the member engines in group order.
func (g *Group) Engines() []*Engine { return g.engines }

// Send schedules fn at absolute time at on dst, on behalf of src. The
// sender must guarantee at >= src.Now() + lookahead (true by
// construction when at includes a cross-engine link latency). Outside a
// windowed Run this degenerates to dst.At. Inside one it buffers the
// message in a per-source queue — each source goroutine touches only
// its own buffer, so windows need no locks — for injection at the next
// barrier.
func (g *Group) Send(src, dst *Engine, at Time, fn func()) {
	if !g.windowed {
		dst.At(at, fn)
		return
	}
	i, ok := g.idx[src]
	if !ok {
		panic("sim: group send from engine outside the group")
	}
	g.out[i] = append(g.out[i], xmsg{dst: dst, at: at, fn: fn, src: i, seq: g.nsent[i]})
	g.nsent[i]++
}

// Settle executes events across all engines in global (time, engine
// index) order until every queue drains. It is single-threaded and
// tolerates direct cross-engine scheduling (dst.At from another
// engine's callback), which makes it the right tool for control-plane
// phases — deployment commits, migrations — where call graphs span
// hosts arbitrarily and lookahead does not apply.
func (g *Group) Settle() {
	for {
		best := -1
		var bt Time
		for i, e := range g.engines {
			s := e.q.peek()
			if s == nil {
				continue
			}
			if best < 0 || s.at < bt {
				best, bt = i, s.at
			}
		}
		if best < 0 {
			return
		}
		g.engines[best].Step()
	}
}

// Run advances every engine to until using conservative windows.
// workers is read only as workers > 1: then every window runs each
// engine's body on its own goroutine, one per engine whatever the count,
// so 2 and 8 run the same code. workers <= 1 runs the bodies serially,
// with the same results bit-for-bit. Events at exactly until fire; all
// clocks end at until.
func (g *Group) Run(until Time, workers int) {
	g.windowed = true
	defer func() { g.windowed = false }()
	for {
		g.flush()
		next, ok := g.minNext()
		if !ok || next > until {
			for _, e := range g.engines {
				if e.now < until {
					e.now = until
				}
			}
			return
		}
		h := next + g.lookahead
		inclusive := false
		if h >= until {
			h = until
			inclusive = true
		}
		if workers > 1 {
			// The window bounds go in as arguments: a goroutine closure
			// capturing them would move them to the heap on every window,
			// serial ones included.
			var wg sync.WaitGroup
			for _, e := range g.engines {
				wg.Add(1)
				go func(e *Engine, h Time, inclusive bool) {
					defer wg.Done()
					e.runWindow(h, inclusive)
				}(e, h, inclusive)
			}
			wg.Wait()
		} else {
			for _, e := range g.engines {
				e.runWindow(h, inclusive)
			}
		}
	}
}

// flush injects every buffered cross-engine message in deterministic
// (at, src, seq) order. Receiver At calls then assign sequence numbers
// identically regardless of how the window bodies were scheduled.
func (g *Group) flush() {
	g.inj = g.inj[:0]
	for i := range g.out {
		g.inj = append(g.inj, g.out[i]...)
		g.out[i] = g.out[i][:0]
	}
	if len(g.inj) == 0 {
		return
	}
	slices.SortFunc(g.inj, func(x, y xmsg) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		if c := cmp.Compare(x.src, y.src); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	for i := range g.inj {
		m := &g.inj[i]
		m.dst.At(m.at, m.fn)
		m.fn = nil
	}
}

// minNext reports the earliest pending event time across the group.
func (g *Group) minNext() (Time, bool) {
	var t Time
	found := false
	for _, e := range g.engines {
		s := e.q.peek()
		if s == nil {
			continue
		}
		if !found || s.at < t {
			t, found = s.at, true
		}
	}
	return t, found
}
