// Package obs is the virtual-time observability layer: a deterministic
// span/instant trace recorder plus a unified metrics registry, threaded
// through every simulated component (sim, bus, hostos, channel, core,
// cluster).
//
// # Recorder design
//
// A Tracer owns one Shard per engine. A shard is a single-writer ring of
// fixed-size Record values, preallocated at attach time — appending a
// record is an index increment and a struct store, no allocation, no
// lock. Under sim.Group each host engine writes only its own shard;
// Merged() interleaves the shards afterwards by the deterministic
// (At, shard, seq) order, so the merged trace of a seed does not depend
// on the order in which the engines ran.
//
// # Overhead contract
//
// Tracing must cost near zero when off. Components obtain their shard
// once at construction via ForCat, which returns nil unless the
// component's category is enabled; every hot call site is guarded by the
// nil-receiver-safe On() fast path:
//
//	if tr.On() {
//	    tr.Instant(obs.CatChannel, "chan.send", int64(id))
//	}
//
// so a disabled trace costs one predictable branch and builds no
// arguments or closures (cmd/odflint -traceguard enforces the guard on
// hot-path packages). The sim schedule/fire probe is attached to an
// engine only when CatSim is enabled; otherwise the engine's own nil
// check is the entire cost.
//
// When a shard's ring fills, the oldest records are overwritten and
// counted in Dropped() — tracing never stops a run.
package obs

import (
	"sort"

	"hydra/internal/sim"
)

// Cat classifies a record by the layer that emitted it.
type Cat uint8

// Trace categories, one per instrumented layer.
const (
	CatSim Cat = iota // engine schedule/fire (very hot; opt-in)
	CatBus
	CatHost
	CatChannel
	CatCore
	CatCluster
	CatApp
	CatMutate  // live-mutation windows: hot-swap quiesce/replay, scale events
	CatSyscall // device-initiated host syscalls: issue→batch→dispatch→complete
	CatFlow    // data-plane flow tables: hit/miss/insert/evict/expire/drop
	numCats
)

var catNames = [numCats]string{"sim", "bus", "host", "channel", "core", "cluster", "app", "mutate", "syscall", "flow"}

func (c Cat) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "cat?"
}

// CatByName maps an exporter category string back to its Cat.
func CatByName(s string) (Cat, bool) {
	for i, n := range catNames {
		if n == s {
			return Cat(i), true
		}
	}
	return 0, false
}

// Mask selects enabled categories; bit i enables Cat(i).
type Mask uint32

// MaskAll enables every category except CatSim, whose per-event instants
// are voluminous enough to be opt-in; MaskEverything includes it.
const (
	MaskAll        Mask = (1<<numCats - 1) &^ (1 << CatSim)
	MaskEverything Mask = 1<<numCats - 1
)

// Has reports whether category c is enabled.
func (m Mask) Has(c Cat) bool { return m&(1<<c) != 0 }

// Kind distinguishes record shapes.
type Kind uint8

// Record kinds: an Instant marks a point in virtual time, a Span covers
// [At, At+Dur].
const (
	KindInstant Kind = iota
	KindSpan
)

// Record is one trace entry. Records are fixed-size values held in the
// shard's preallocated ring; Name must be a static string (hot paths
// never build names).
type Record struct {
	Name  string
	At    sim.Time
	Dur   sim.Time
	Arg   int64
	Seq   uint64 // per-shard append index, monotonic
	Shard int32
	Cat   Cat
	Kind  Kind
}

// DefaultCap is the per-shard ring capacity when Config.Cap is zero:
// large enough to hold a full x7 cell trace without drops, small enough
// (~56 MB across a few shards) to stay a diagnostic-tool cost.
const DefaultCap = 1 << 20

// Config tunes a Tracer. The zero Mask means MaskAll.
type Config struct {
	Mask Mask
	Cap  int
}

// Tracer owns the shards of one traced system.
type Tracer struct {
	mask   Mask
	cap    int
	shards []*Shard
}

// NewTracer builds an empty tracer; attach engines with Attach.
func NewTracer(cfg Config) *Tracer {
	if cfg.Mask == 0 {
		cfg.Mask = MaskAll
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	return &Tracer{mask: cfg.Mask, cap: cfg.Cap}
}

// Attach creates a shard for eng, registers it as the engine's obs
// handle (FromEngine finds it), and — when CatSim is enabled — installs
// the schedule/fire probe. Attach order defines shard indices, so attach
// engines in a deterministic order.
func (t *Tracer) Attach(eng *sim.Engine, label string) *Shard {
	s := &Shard{
		eng:   eng,
		label: label,
		idx:   int32(len(t.shards)),
		mask:  t.mask,
		buf:   make([]Record, t.cap),
	}
	t.shards = append(t.shards, s)
	eng.SetObs(s)
	if t.mask.Has(CatSim) {
		eng.SetProbe(s)
	}
	return s
}

// Dropped reports records lost to ring overwrites across all shards.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for _, s := range t.shards {
		n += s.Dropped()
	}
	return n
}

// Len reports retained records across all shards.
func (t *Tracer) Len() int {
	n := 0
	for _, s := range t.shards {
		n += s.Len()
	}
	return n
}

// Merged returns every retained record across shards in the global
// deterministic order (At, shard, seq).
func (t *Tracer) Merged() []Record {
	out := make([]Record, 0, t.Len())
	for _, s := range t.shards {
		out = append(out, s.Records()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}

// Shard is one engine's trace ring. All methods are safe on a nil
// receiver (they do nothing), so callers hold a possibly-nil *Shard and
// guard hot paths with On().
type Shard struct {
	eng   *sim.Engine
	label string
	idx   int32
	mask  Mask
	buf   []Record
	next  uint64 // total records ever appended
}

// FromEngine returns the shard attached to eng, or nil.
func FromEngine(eng *sim.Engine) *Shard {
	if eng == nil {
		return nil
	}
	s, _ := eng.Obs().(*Shard)
	return s
}

// ForCat returns eng's shard only when category c is enabled on it —
// the handle a component stores at construction so its On() guard is a
// single nil check.
func ForCat(eng *sim.Engine, c Cat) *Shard {
	s := FromEngine(eng)
	if s == nil || !s.mask.Has(c) {
		return nil
	}
	return s
}

// On is the hot-path guard: true only for a non-nil shard. Call sites
// must check it before building trace arguments.
func (s *Shard) On() bool { return s != nil }

// append stores one record, overwriting the oldest when the ring is full.
func (s *Shard) append(r Record) {
	r.Seq = s.next
	r.Shard = s.idx
	s.buf[s.next%uint64(len(s.buf))] = r
	s.next++
}

// Instant records a point event at the current virtual time.
func (s *Shard) Instant(c Cat, name string, arg int64) {
	if s == nil || !s.mask.Has(c) {
		return
	}
	s.append(Record{Name: name, At: s.eng.Now(), Arg: arg, Cat: c, Kind: KindInstant})
}

// SpanHandle is an open span returned by Begin. It is a small value;
// set Arg before End to attach a payload.
type SpanHandle struct {
	Name  string
	Start sim.Time
	Arg   int64
	Cat   Cat
	ok    bool
}

// Begin opens a span at the current virtual time. Nothing is recorded
// until End.
func (s *Shard) Begin(c Cat, name string, arg int64) SpanHandle {
	if s == nil || !s.mask.Has(c) {
		return SpanHandle{}
	}
	return SpanHandle{Name: name, Start: s.eng.Now(), Arg: arg, Cat: c, ok: true}
}

// End closes a span opened by Begin, recording [h.Start, now]. Ending a
// zero handle (Begin on a nil or masked shard) is a no-op.
func (s *Shard) End(h SpanHandle) {
	if s == nil || !h.ok {
		return
	}
	s.append(Record{
		Name: h.Name, At: h.Start, Dur: s.eng.Now() - h.Start,
		Arg: h.Arg, Cat: h.Cat, Kind: KindSpan,
	})
}

// Complete records a span whose start and duration are already known —
// the natural form for components that compute busy windows at issue
// time (bus transfers, hostos segments).
func (s *Shard) Complete(c Cat, name string, start, dur sim.Time, arg int64) {
	if s == nil || !s.mask.Has(c) {
		return
	}
	if dur < 0 {
		dur = 0
	}
	s.append(Record{Name: name, At: start, Dur: dur, Arg: arg, Cat: c, Kind: KindSpan})
}

// Len reports retained records (at most the ring capacity).
func (s *Shard) Len() int {
	if s == nil {
		return 0
	}
	if s.next < uint64(len(s.buf)) {
		return int(s.next)
	}
	return len(s.buf)
}

// Dropped reports records overwritten by ring wrap-around.
func (s *Shard) Dropped() uint64 {
	if s == nil {
		return 0
	}
	if s.next <= uint64(len(s.buf)) {
		return 0
	}
	return s.next - uint64(len(s.buf))
}

// Records returns the retained records in append order (oldest first).
// The slice is freshly built; the ring keeps recording.
func (s *Shard) Records() []Record {
	n := s.Len()
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	first := s.next - uint64(n)
	for i := first; i < s.next; i++ {
		out = append(out, s.buf[i%uint64(len(s.buf))])
	}
	return out
}

// Names for the engine probe's instants.
const (
	simSchedName = "sim.sched"
	simFireName  = "sim.fire"
)

// EventScheduled implements sim.EngineProbe.
func (s *Shard) EventScheduled(at sim.Time) {
	s.append(Record{Name: simSchedName, At: s.eng.Now(), Arg: int64(at), Cat: CatSim, Kind: KindInstant})
}

// EventFired implements sim.EngineProbe.
func (s *Shard) EventFired(at sim.Time) {
	s.append(Record{Name: simFireName, At: at, Cat: CatSim, Kind: KindInstant})
}
