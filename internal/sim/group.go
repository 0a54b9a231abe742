package sim

import "fmt"

// Group coordinates several engines whose only interaction is message
// passing with a minimum latency (the lookahead). It implements
// classic conservative-window discrete-event simulation
// (Chandy–Misra–Bryant style, with a global window instead of per-link
// null messages):
//
//	window horizon h = (earliest pending event across all engines) + lookahead
//
// Within [·, h) every engine can run independently: any message one
// engine sends to another is delayed by at least the lookahead, so its
// delivery time is >= h and it cannot affect the receiver inside the
// current window. Each window runs the engines to h one after another in
// group order; cross-engine messages sent meanwhile are buffered and
// injected at the barrier, and the next window begins.
//
// Determinism: the buffer fills in (source engine index, send order), and
// the barrier injects it in that order. A receiver's heap orders events
// by (time, sequence number), so messages for the same receiver and
// instant fire in (source, send order), after every event the receiver
// had already scheduled for that instant.
type Group struct {
	engines   []*Engine
	lookahead Time

	windowed bool
	out      []xmsg // this window's cross-engine messages, in send order
}

// xmsg is one buffered cross-engine message.
type xmsg struct {
	dst *Engine
	at  Time
	fn  func()
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
	seen := make(map[*Engine]bool, len(engines))
	for i, e := range engines {
		if seen[e] {
			return nil, fmt.Errorf("sim: engine %d appears twice in group", i)
		}
		seen[e] = true
	}
	return &Group{engines: engines, lookahead: lookahead}, nil
}

// Engines returns the member engines in group order.
func (g *Group) Engines() []*Engine { return g.engines }

// Send schedules fn at absolute time at on dst. The sending engine must
// guarantee at >= its Now() + lookahead (true by construction when at
// includes a cross-engine link latency). Outside a windowed Run this
// degenerates to dst.At. Inside one it buffers the message for injection
// at the next barrier.
func (g *Group) Send(dst *Engine, at Time, fn func()) {
	if !g.windowed {
		dst.At(at, fn)
		return
	}
	g.out = append(g.out, xmsg{dst: dst, at: at, fn: fn})
}

// Settle executes events across all engines in global (time, engine
// index) order until every queue drains. It tolerates direct
// cross-engine scheduling (dst.At from another engine's callback), which
// makes it the right tool for control-plane phases — deployment commits,
// migrations — where call graphs span hosts arbitrarily and lookahead
// does not apply.
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

// Run advances every engine to until using conservative windows, which
// always run serially, engine by engine in group order. The second
// argument is ignored. Events at exactly until fire; all clocks end at
// until.
func (g *Group) Run(until Time, _ int) {
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
		for _, e := range g.engines {
			e.runWindow(h, inclusive)
		}
	}
}

// flush injects the window's buffered cross-engine messages in send
// order, so receiver At calls assign their sequence numbers in (source
// engine index, send order).
func (g *Group) flush() {
	for i := range g.out {
		m := &g.out[i]
		m.dst.At(m.at, m.fn)
		m.fn = nil
	}
	g.out = g.out[:0]
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
