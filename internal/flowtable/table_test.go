package flowtable

import (
	"bytes"
	"math/rand"
	"testing"

	"hydra/internal/sim"
)

// modelEntry / model is the executable spec the property tests check the
// Table against: a plain slice kept in LRU order with the same idle
// sweep, update and eviction semantics, obviously correct by inspection.
type modelEntry struct {
	key      Key
	action   Action
	backend  uint16
	lastSeen sim.Time
}

type model struct {
	cfg     Config
	cap     int
	entries []modelEntry // index 0 = MRU
	stats   Stats
}

func newModel(cfg Config) *model {
	c := cfg.QuotaBytes / EntryBytes
	if c < 1 {
		c = 1
	}
	return &model{cfg: cfg, cap: c}
}

func (m *model) find(k Key) int {
	for i := range m.entries {
		if m.entries[i].key == k {
			return i
		}
	}
	return -1
}

func (m *model) expired(e modelEntry, now sim.Time) bool {
	return m.cfg.IdleTimeout > 0 && now-e.lastSeen > m.cfg.IdleTimeout
}

func (m *model) remove(i int) {
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
}

func (m *model) lookup(k Key, now sim.Time) (Action, uint16, bool) {
	m.stats.Lookups++
	i := m.find(k)
	if i >= 0 && m.expired(m.entries[i], now) {
		m.remove(i)
		m.stats.Expired++
		i = -1
	}
	if i < 0 {
		m.stats.Misses++
		return 0, 0, false
	}
	e := m.entries[i]
	e.lastSeen = now
	m.remove(i)
	m.entries = append([]modelEntry{e}, m.entries...)
	m.stats.Hits++
	return e.action, e.backend, true
}

func (m *model) insert(k Key, a Action, backend uint16, now sim.Time) {
	for n := 0; n < 2 && len(m.entries) > 0 && m.expired(m.entries[len(m.entries)-1], now); n++ {
		m.remove(len(m.entries) - 1)
		m.stats.Expired++
	}
	if i := m.find(k); i >= 0 {
		e := m.entries[i]
		e.action, e.backend, e.lastSeen = a, backend, now
		m.remove(i)
		m.entries = append([]modelEntry{e}, m.entries...)
		return
	}
	if len(m.entries) >= m.cap {
		m.remove(len(m.entries) - 1)
		m.stats.Evicted++
	}
	m.entries = append([]modelEntry{{key: k, action: a, backend: backend, lastSeen: now}}, m.entries...)
	m.stats.Inserts++
}

// smallKey draws from a deliberately tiny keyspace so lookups, updates,
// evictions and expirations all collide often.
func smallKey(rng *rand.Rand) Key {
	return Key{
		SrcIP:   uint32(rng.Intn(8)),
		DstIP:   uint32(rng.Intn(4)),
		SrcPort: uint16(rng.Intn(4)),
		DstPort: uint16(rng.Intn(3)),
		Proto:   uint8(rng.Intn(2)),
	}
}

// TestTableAgainstModel is the quick-check property run: random op
// sequences against Table and the reference model, comparing every
// observable (hit results, length, quota bound, stats) after every op,
// and the checkpoint round-trip at the end of each sequence.
func TestTableAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			QuotaBytes:  (1 + rng.Intn(12)) * EntryBytes,
			IdleTimeout: sim.Time(rng.Intn(3)) * 10 * sim.Millisecond, // 0 disables
		}
		tab := New(cfg, nil)
		ref := newModel(cfg)
		var now sim.Time
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				k := smallKey(rng)
				a, b, hit := tab.Lookup(k, now)
				wa, wb, whit := ref.lookup(k, now)
				if hit != whit || a != wa || b != wb {
					t.Fatalf("seed %d op %d: lookup(%v) = (%v,%d,%v), model (%v,%d,%v)",
						seed, op, k, a, b, hit, wa, wb, whit)
				}
			case 2:
				k := smallKey(rng)
				act := Action(rng.Intn(4))
				backend := uint16(rng.Intn(8))
				tab.Insert(k, act, backend, now)
				ref.insert(k, act, backend, now)
			case 3:
				now += sim.Time(rng.Intn(20)) * sim.Millisecond
			}
			if tab.Len() > tab.cap {
				t.Fatalf("seed %d op %d: len %d exceeds quota capacity %d",
					seed, op, tab.Len(), tab.cap)
			}
			if tab.Len() != len(ref.entries) {
				t.Fatalf("seed %d op %d: len %d, model %d", seed, op, tab.Len(), len(ref.entries))
			}
			if tab.Stats() != ref.stats {
				t.Fatalf("seed %d op %d: stats %+v, model %+v", seed, op, tab.Stats(), ref.stats)
			}
		}
		// Checkpoint → Restore → Checkpoint must be bit-exact.
		ck := tab.Checkpoint()
		clone := New(cfg, nil)
		if err := clone.Restore(ck); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if !bytes.Equal(ck, clone.Checkpoint()) {
			t.Fatalf("seed %d: checkpoint not bit-exact through restore", seed)
		}
		if string(tab.Checkpoint()) != string(clone.Checkpoint()) {
			t.Fatalf("seed %d: digest changed through restore", seed)
		}
	}
}

// TestLookupAfterInsertBeforeEvict is the core conntrack property: as
// long as an inserted key has neither been evicted nor idled out, every
// lookup hits and returns the inserted verdict.
func TestLookupAfterInsertBeforeEvict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New(Config{QuotaBytes: 64 * EntryBytes}, nil) // no idle timeout
	live := map[Key]struct {
		act     Action
		backend uint16
	}{}
	var order []Key // insertion order approximates LRU age for the check
	for op := 0; op < 2000; op++ {
		k := Key{SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
			Proto: uint8(rng.Intn(256))}
		act := Action(rng.Intn(4))
		backend := uint16(rng.Intn(16))
		evictions := tab.Stats().Evicted
		tab.Insert(k, act, backend, 0)
		live[k] = struct {
			act     Action
			backend uint16
		}{act, backend}
		order = append(order, k)
		if got := tab.Stats().Evicted; got > evictions {
			// The oldest untouched key was the victim.
			victim := order[0]
			order = order[1:]
			delete(live, victim)
			if contains(tab, victim) {
				t.Fatalf("op %d: evicted %v still present", op, victim)
			}
		}
		// Every still-live key must hit with its inserted verdict.
		probe := order[rng.Intn(len(order))]
		a, b, hit := tab.Lookup(probe, 0)
		if !hit || a != live[probe].act || b != live[probe].backend {
			t.Fatalf("op %d: live key %v = (%v,%d,%v), want (%v,%d,true)",
				op, probe, a, b, hit, live[probe].act, live[probe].backend)
		}
		// The lookup refreshed probe's LRU position; mirror it.
		for i, k2 := range order {
			if k2 == probe {
				order = append(append(append([]Key{}, order[:i]...), order[i+1:]...), probe)
				break
			}
		}
	}
}

// TestShardDisjoint: routing by Key.Shard partitions any key population
// into disjoint shard-local tables whose sizes sum to the global count.
func TestShardDisjoint(t *testing.T) {
	const shards = 16
	rng := rand.New(rand.NewSource(11))
	tabs := make([]*Table, shards)
	for i := range tabs {
		tabs[i] = New(Config{QuotaBytes: 1 << 20}, nil)
	}
	seen := map[Key]bool{}
	for n := 0; n < 5000; n++ {
		k := Key{SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
			Proto: uint8(rng.Intn(256))}
		s := k.Shard(shards)
		if s2 := k.Shard(shards); s2 != s {
			t.Fatalf("Shard not stable for %v: %d then %d", k, s, s2)
		}
		tabs[s].Insert(k, ActForward, 0, 0)
		seen[k] = true
	}
	total := 0
	for k := range seen {
		owner := k.Shard(shards)
		for i, tab := range tabs {
			if got := contains(tab, k); got != (i == owner) {
				t.Fatalf("key %v: shard %d contains=%v, owner %d", k, i, got, owner)
			}
		}
	}
	for _, tab := range tabs {
		total += tab.Len()
	}
	if total != len(seen) {
		t.Fatalf("shard sizes sum to %d, %d distinct keys inserted", total, len(seen))
	}
}

// TestIdleExpiry: entries past the idle timeout miss, count as Expired,
// and the insert-time tail sweep retires idle entries without lookups.
func TestIdleExpiry(t *testing.T) {
	tab := New(Config{QuotaBytes: 8 * EntryBytes, IdleTimeout: 10 * sim.Millisecond}, nil)
	k1 := Key{SrcIP: 1}
	k2 := Key{SrcIP: 2}
	tab.Insert(k1, ActForward, 0, 0)
	tab.Insert(k2, ActDrop, 0, 5*sim.Millisecond)
	if _, _, hit := tab.Lookup(k1, 10*sim.Millisecond); !hit {
		t.Fatal("k1 expired exactly at the timeout boundary (want strict >)")
	}
	if _, _, hit := tab.Lookup(k1, 21*sim.Millisecond); hit {
		t.Fatal("k1 still hit past its refreshed idle timeout")
	}
	if st := tab.Stats(); st.Expired != 1 {
		t.Fatalf("expired %d, want 1", st.Expired)
	}
	// k2 (idle since 5 ms) is swept from the tail by an unrelated insert.
	tab.Insert(Key{SrcIP: 3}, ActForward, 0, 30*sim.Millisecond)
	if contains(tab, k2) {
		t.Fatal("tail sweep left idle k2 in place")
	}
	if st := tab.Stats(); st.Expired != 2 || st.Evicted != 0 {
		t.Fatalf("stats %+v: want 2 expired, 0 evicted", st)
	}
}

// TestPipelineVerdicts: rule order, verdict caching, sticky rewrite
// backends and the drop counter.
func TestPipelineVerdicts(t *testing.T) {
	p := NewPipeline(PipelineConfig{
		Table: Config{QuotaBytes: 64 * EntryBytes},
		Rules: []Rule{
			{Match: Match{DstPort: 23}, Action: ActDrop},
			{Match: Match{DstPort: 80}, Action: ActRewrite},
			{Match: Match{Proto: 17}, Action: ActCount},
		},
		Default:  ActForward,
		Backends: 8,
	}, nil)
	web := Key{SrcIP: 9, DstPort: 80, Proto: 6}
	act, backend, hit := p.Process(web, 0)
	if hit || act != ActRewrite {
		t.Fatalf("first web packet: (%v, hit=%v)", act, hit)
	}
	if want := uint16(web.Hash() % 8); backend != want {
		t.Fatalf("backend %d, want hash-stable %d", backend, want)
	}
	act2, backend2, hit2 := p.Process(web, 0)
	if !hit2 || act2 != act || backend2 != backend {
		t.Fatalf("cached verdict changed: (%v,%d,%v)", act2, backend2, hit2)
	}
	if act, _, _ := p.Process(Key{DstPort: 23, Proto: 6}, 0); act != ActDrop {
		t.Fatalf("telnet not dropped: %v", act)
	}
	if act, _, _ := p.Process(Key{DstPort: 23, Proto: 17}, 0); act != ActDrop {
		t.Fatalf("first match should win over the UDP count rule: %v", act)
	}
	if act, _, _ := p.Process(Key{DstPort: 53, Proto: 17}, 0); act != ActCount {
		t.Fatalf("UDP not counted: %v", act)
	}
	if act, _, _ := p.Process(Key{DstPort: 4242, Proto: 6}, 0); act != ActForward {
		t.Fatalf("default not applied: %v", act)
	}
	st := p.Stats()
	if st.Rewritten != 2 || st.Dropped != 2 || st.Counted != 1 || st.Forwarded != 1 {
		t.Fatalf("verdict counters %+v", st)
	}
}

// TestPipelineCheckpointRestore: a restored pipeline is bit-identical —
// same digest, same verdicts, same counters going forward.
func TestPipelineCheckpointRestore(t *testing.T) {
	cfg := PipelineConfig{
		Table:    Config{QuotaBytes: 16 * EntryBytes, IdleTimeout: 50 * sim.Millisecond},
		Rules:    []Rule{{Match: Match{DstPort: 23}, Action: ActDrop}},
		Default:  ActRewrite,
		Backends: 4,
	}
	rng := rand.New(rand.NewSource(3))
	p := NewPipeline(cfg, nil)
	for i := 0; i < 200; i++ {
		p.Process(smallKey(rng), sim.Time(i)*sim.Millisecond)
	}
	ck := p.Checkpoint()
	q := NewPipeline(cfg, nil)
	if err := q.Restore(ck); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if p.Digest() != q.Digest() {
		t.Fatal("digest differs after restore")
	}
	// Both must evolve identically from here.
	for i := 0; i < 50; i++ {
		k := smallKey(rng)
		now := sim.Time(200+i) * sim.Millisecond
		a1, b1, h1 := p.Process(k, now)
		a2, b2, h2 := q.Process(k, now)
		if a1 != a2 || b1 != b2 || h1 != h2 {
			t.Fatalf("diverged at %d: (%v,%d,%v) vs (%v,%d,%v)", i, a1, b1, h1, a2, b2, h2)
		}
	}
	if p.Digest() != q.Digest() || p.Stats() != q.Stats() {
		t.Fatal("original and restored pipelines diverged")
	}
	if err := q.Restore(ck[:10]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// contains reports whether k is tracked, with no side effect on the table.
func contains(tab *Table, k Key) bool { _, ok := tab.m[k]; return ok }
