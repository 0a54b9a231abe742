package flowtable

import (
	"encoding/binary"
	"fmt"

	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Action is a cached per-flow verdict.
type Action uint8

// The match-action verbs: pass through, rewrite to a load-balanced
// backend, drop at the NIC, or count-and-forward.
const (
	ActForward Action = iota
	ActRewrite
	ActDrop
	ActCount
)

func (a Action) String() string {
	switch a {
	case ActForward:
		return "forward"
	case ActRewrite:
		return "rewrite"
	case ActDrop:
		return "drop"
	case ActCount:
		return "count"
	}
	return "action?"
}

// EntryBytes is the accounted memory footprint of one flow entry — key,
// verdict, LRU links and counters, rounded to a cache line. The quota is
// expressed in bytes so "a shard gets 32 KB of NIC SRAM" is a Config.
const EntryBytes = 64

// Config bounds one shard-local table.
type Config struct {
	// QuotaBytes is the memory budget; capacity = QuotaBytes/EntryBytes,
	// minimum one entry.
	QuotaBytes int
	// IdleTimeout expires entries not seen for longer than this; zero
	// disables aging.
	IdleTimeout sim.Time
}

// Stats counts table operations over the table's lifetime (carried
// across Checkpoint/Restore, so a hot-swapped shard's ledger continues).
type Stats struct {
	Lookups, Hits, Misses     uint64
	Inserts, Evicted, Expired uint64
}

// entry is one tracked flow, linked into the LRU list (front = most
// recently used).
type entry struct {
	key        Key
	action     Action
	backend    uint16
	hits       uint64
	lastSeen   sim.Time
	prev, next *entry
}

// Table is one shard's connection-tracking state: a hash map for O(1)
// lookup plus an intrusive LRU list for deterministic victim selection.
// The map is never iterated, so no Go map order leaks into results,
// checkpoints or traces.
type Table struct {
	cfg   Config
	cap   int
	m     map[Key]*entry
	front *entry // most recently used
	back  *entry // least recently used
	stats Stats
	tr    *obs.Shard
}

// New builds an empty table under cfg; tr (nil to disable) receives
// obs.CatFlow instants.
func New(cfg Config, tr *obs.Shard) *Table {
	c := cfg.QuotaBytes / EntryBytes
	if c < 1 {
		c = 1
	}
	return &Table{cfg: cfg, cap: c, m: make(map[Key]*entry, c), tr: tr}
}

// Len is the current entry count, always within the QuotaBytes budget.
func (t *Table) Len() int { return len(t.m) }

// Stats returns the operation counters.
func (t *Table) Stats() Stats { return t.stats }

func (t *Table) expired(e *entry, now sim.Time) bool {
	return t.cfg.IdleTimeout > 0 && now-e.lastSeen > t.cfg.IdleTimeout
}

func (t *Table) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (t *Table) pushFront(e *entry) {
	e.next = t.front
	if t.front != nil {
		t.front.prev = e
	}
	t.front = e
	if t.back == nil {
		t.back = e
	}
}

func (t *Table) touch(e *entry) {
	if t.front == e {
		return
	}
	t.unlink(e)
	t.pushFront(e)
}

func (t *Table) drop(e *entry) {
	t.unlink(e)
	delete(t.m, e.key)
}

// Lookup finds k's cached verdict, refreshing its age and LRU position
// on a hit. An entry past its idle timeout is expired lazily and counts
// as a miss.
func (t *Table) Lookup(k Key, now sim.Time) (Action, uint16, bool) {
	t.stats.Lookups++
	e := t.m[k]
	if e != nil && t.expired(e, now) {
		t.drop(e)
		t.stats.Expired++
		if t.tr.On() {
			t.tr.Instant(obs.CatFlow, "flow.expire", int64(e.key.Hash()))
		}
		e = nil
	}
	if e == nil {
		t.stats.Misses++
		if t.tr.On() {
			t.tr.Instant(obs.CatFlow, "flow.miss", int64(k.Hash()))
		}
		return 0, 0, false
	}
	e.hits++
	e.lastSeen = now
	t.touch(e)
	t.stats.Hits++
	if t.tr.On() {
		t.tr.Instant(obs.CatFlow, "flow.hit", int64(k.Hash()))
	}
	return e.action, e.backend, true
}

// sweepTail is the incremental ager: each insert retires up to two idle
// LRU-tail entries, so churned-out flows age out of a table that never
// fills (the X12 steady state) without a background scan.
func (t *Table) sweepTail(now sim.Time) {
	for n := 0; n < 2 && t.back != nil && t.expired(t.back, now); n++ {
		e := t.back
		t.drop(e)
		t.stats.Expired++
		if t.tr.On() {
			t.tr.Instant(obs.CatFlow, "flow.expire", int64(e.key.Hash()))
		}
	}
}

// Insert tracks k with the given verdict. An existing entry is updated
// in place (no Inserts count). At capacity the LRU tail is evicted —
// after the idle sweep, so an aged-out victim counts as Expired rather
// than Evicted.
func (t *Table) Insert(k Key, a Action, backend uint16, now sim.Time) {
	t.sweepTail(now)
	if e := t.m[k]; e != nil {
		e.action, e.backend, e.lastSeen = a, backend, now
		t.touch(e)
		return
	}
	if len(t.m) >= t.cap {
		e := t.back
		t.drop(e)
		t.stats.Evicted++
		if t.tr.On() {
			t.tr.Instant(obs.CatFlow, "flow.evict", int64(e.key.Hash()))
		}
	}
	e := &entry{key: k, action: a, backend: backend, lastSeen: now}
	t.m[k] = e
	t.pushFront(e)
	t.stats.Inserts++
	if t.tr.On() {
		t.tr.Instant(obs.CatFlow, "flow.insert", int64(k.Hash()))
	}
}

// checkpoint layout: u32 count, then count entries MRU→LRU (key 13 B,
// action 1 B, backend 2 B, hits 8 B, lastSeen 8 B), then the six Stats
// counters. All little-endian.
const ckptEntryBytes = KeyBytes + 1 + 2 + 8 + 8

// Checkpoint serializes the table bit-exactly: entries in LRU order
// (most recent first) plus the lifetime stats. Restore on an equally
// configured table reproduces an identical Checkpoint.
func (t *Table) Checkpoint() []byte {
	out := make([]byte, 4+len(t.m)*ckptEntryBytes+6*8)
	binary.LittleEndian.PutUint32(out, uint32(len(t.m)))
	off := 4
	for e := t.front; e != nil; e = e.next {
		e.key.Put(out[off:])
		out[off+KeyBytes] = byte(e.action)
		binary.LittleEndian.PutUint16(out[off+KeyBytes+1:], e.backend)
		binary.LittleEndian.PutUint64(out[off+KeyBytes+3:], e.hits)
		binary.LittleEndian.PutUint64(out[off+KeyBytes+11:], uint64(e.lastSeen))
		off += ckptEntryBytes
	}
	for _, v := range []uint64{t.stats.Lookups, t.stats.Hits, t.stats.Misses,
		t.stats.Inserts, t.stats.Evicted, t.stats.Expired} {
		binary.LittleEndian.PutUint64(out[off:], v)
		off += 8
	}
	return out
}

// Restore replaces the table's contents and stats from a Checkpoint. It
// is atomic: the whole checkpoint is decoded and validated before the
// table changes, so an error leaves it exactly as it was.
func (t *Table) Restore(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("flowtable: checkpoint too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if want := 4 + n*ckptEntryBytes + 6*8; len(b) != want {
		return fmt.Errorf("flowtable: checkpoint is %d bytes, want %d for %d entries", len(b), want, n)
	}
	if n > t.cap {
		return fmt.Errorf("flowtable: checkpoint holds %d entries over capacity %d", n, t.cap)
	}
	m := make(map[Key]*entry, t.cap)
	var front, back *entry
	off := 4
	for i := 0; i < n; i++ {
		k, err := DecodeKey(b[off : off+KeyBytes])
		if err != nil {
			return err
		}
		if _, dup := m[k]; dup {
			return fmt.Errorf("flowtable: checkpoint repeats key %v", k)
		}
		e := &entry{
			key:      k,
			action:   Action(b[off+KeyBytes]),
			backend:  binary.LittleEndian.Uint16(b[off+KeyBytes+1:]),
			hits:     binary.LittleEndian.Uint64(b[off+KeyBytes+3:]),
			lastSeen: sim.Time(binary.LittleEndian.Uint64(b[off+KeyBytes+11:])),
			prev:     back,
		}
		m[k] = e
		if back == nil {
			front = e
		} else {
			back.next = e
		}
		back = e
		off += ckptEntryBytes
	}
	t.m, t.front, t.back = m, front, back
	for i, p := range []*uint64{&t.stats.Lookups, &t.stats.Hits, &t.stats.Misses,
		&t.stats.Inserts, &t.stats.Evicted, &t.stats.Expired} {
		*p = binary.LittleEndian.Uint64(b[off+8*i:])
	}
	return nil
}
