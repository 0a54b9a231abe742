package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B cache.
	return New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
}

// touch accesses one address and reports whether it missed.
func touch(c *Cache, ctx Context, addr uint64) bool {
	return c.AccessRange(ctx, addr, 1) == 1
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if !touch(c, Kernel, 0) {
		t.Fatal("first access should miss")
	}
	if touch(c, Kernel, 0) {
		t.Fatal("second access should hit")
	}
	if touch(c, Kernel, 63) {
		t.Fatal("same-line access should hit")
	}
	if !touch(c, Kernel, 64) {
		t.Fatal("next-line access should miss")
	}
	st := c.Stats(Kernel)
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets; addresses 0, 256, 512 map to set 0 (stride 4*64)
	touch(c, Kernel, 0)
	touch(c, Kernel, 256)
	touch(c, Kernel, 0)   // make line 0 most recent
	touch(c, Kernel, 512) // evicts 256 (LRU), not 0
	if touch(c, Kernel, 0) {
		t.Fatal("line 0 was evicted but was most recently used")
	}
	if !touch(c, Kernel, 256) {
		t.Fatal("line 256 should have been evicted")
	}
}

func TestContextsSeparate(t *testing.T) {
	c := small()
	touch(c, Kernel, 0)
	touch(c, User, 1024)
	if c.Stats(Kernel).Accesses != 1 || c.Stats(User).Accesses != 1 {
		t.Fatalf("kernel=%+v user=%+v", c.Stats(Kernel), c.Stats(User))
	}
	tot := c.TotalStats()
	if tot.Accesses != 2 || tot.Misses != 2 {
		t.Fatalf("total = %+v", tot)
	}
}

func TestAccessRange(t *testing.T) {
	c := small()
	misses := c.AccessRange(User, 0, 256) // 4 lines
	if misses != 4 {
		t.Fatalf("misses = %d, want 4", misses)
	}
	if got := c.Stats(User).Accesses; got != 4 {
		t.Fatalf("accesses = %d, want 4", got)
	}
	// Unaligned range spanning two lines.
	misses = c.AccessRange(User, 1000, 80)
	if misses != 2 {
		t.Fatalf("unaligned misses = %d, want 2", misses)
	}
	if c.AccessRange(User, 0, 0) != 0 {
		t.Fatal("zero-size range should not access")
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 512, LineBytes: 0, Ways: 2},
		{SizeBytes: 512, LineBytes: 64, Ways: 0},
		{SizeBytes: 512, LineBytes: 60, Ways: 2}, // line not power of two
		{SizeBytes: 576, LineBytes: 64, Ways: 3}, // sets=3, not power of two
		{SizeBytes: 64, LineBytes: 64, Ways: 2},  // zero sets
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d (%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPentiumIVL2(t *testing.T) {
	c := New(PentiumIVL2())
	if c.cfg.SizeBytes != 256<<10 {
		t.Fatalf("L2 size = %d", c.cfg.SizeBytes)
	}
	// missRate runs one pass and reports its miss rate alone.
	missRate := func(addr uint64, size int) float64 {
		before := c.Stats(Kernel)
		c.AccessRange(Kernel, addr, size)
		after := c.Stats(Kernel)
		return float64(after.Misses-before.Misses) / float64(after.Accesses-before.Accesses)
	}
	// Working set fitting in cache: second pass is all hits.
	missRate(0, 128<<10)
	if got := missRate(0, 128<<10); got != 0 {
		t.Fatalf("resident working set missed: rate=%v", got)
	}
	// Streaming working set far larger than cache: ~100% misses.
	if got := missRate(1<<30, 4<<20); got < 0.99 {
		t.Fatalf("streaming miss rate = %v, want ~1", got)
	}
}

// Property: hits + misses == accesses, and miss rate is within [0, 1].
func TestAccountingProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		c := small()
		for _, a := range addrs {
			touch(c, User, uint64(a))
		}
		st := c.Stats(User)
		if st.Accesses != uint64(len(addrs)) {
			return false
		}
		return st.Misses <= st.Accesses
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (inclusion): immediately re-touching the same address always hits.
func TestRetouchProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		c := small()
		for _, a := range addrs {
			touch(c, User, uint64(a))
			if touch(c, User, uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateRange(t *testing.T) {
	c := small()
	c.AccessRange(Kernel, 0, 256) // lines 0..3, one per set
	before := c.Stats(Kernel)
	c.InvalidateRange(70, 50) // inside line 1 only
	if got := c.Stats(Kernel); got != before {
		t.Fatalf("invalidate counted accesses: %+v -> %+v", before, got)
	}
	if !touch(c, Kernel, 64) {
		t.Fatal("invalidated line should miss")
	}
	for _, addr := range []uint64{0, 128, 192} {
		if touch(c, Kernel, addr) {
			t.Fatalf("neighbouring line %d should still hit", addr)
		}
	}
	c.InvalidateRange(0, 0)
	if touch(c, Kernel, 0) {
		t.Fatal("zero-size invalidate dropped a line")
	}
}

// refCache is a plain per-set LRU list, the obvious model the flat tag
// arrays must match access for access.
type refCache struct {
	lineBits uint
	numSets  uint64
	ways     int
	sets     [][]uint64 // line addresses, most recent first
	stats    [numContexts]Stats
}

func newRef(cfg Config) *refCache {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	r := &refCache{numSets: uint64(numSets), ways: cfg.Ways, sets: make([][]uint64, numSets)}
	for 1<<r.lineBits < cfg.LineBytes {
		r.lineBits++
	}
	return r
}

func (r *refCache) find(l uint64) (set []uint64, i int) {
	set = r.sets[l%r.numSets]
	for i, x := range set {
		if x == l {
			return set, i
		}
	}
	return set, -1
}

func (r *refCache) accessRange(ctx Context, addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	misses := 0
	for l := addr >> r.lineBits; l <= (addr+uint64(size)-1)>>r.lineBits; l++ {
		set, i := r.find(l)
		if i < 0 {
			misses++
			if len(set) < r.ways {
				set = append(set, 0)
			}
			i = len(set) - 1 // the LRU line, or the slot just added
		}
		copy(set[1:i+1], set[:i])
		set[0] = l
		r.sets[l%r.numSets] = set
		r.stats[ctx].Accesses++
	}
	r.stats[ctx].Misses += uint64(misses)
	return misses
}

func (r *refCache) invalidateRange(addr uint64, size int) {
	if size <= 0 {
		return
	}
	for l := addr >> r.lineBits; l <= (addr+uint64(size)-1)>>r.lineBits; l++ {
		if set, i := r.find(l); i >= 0 {
			r.sets[l%r.numSets] = append(set[:i], set[i+1:]...)
		}
	}
}

// TestMatchesReference drives the cache and the reference LRU lists with
// the same seeded mix of ranged accesses and invalidations: every return
// value and every per-context counter must agree.
func TestMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		span int // address span, a few times the capacity
	}{
		{"small", small().cfg, 4 << 10},
		{"PentiumIVL2", PentiumIVL2(), 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, ref := New(tc.cfg), newRef(tc.cfg)
			rng := rand.New(rand.NewSource(1))
			for op := 0; op < 50000; op++ {
				addr := uint64(rng.Intn(tc.span))
				size := rng.Intn(4*tc.cfg.LineBytes+2) - 1 // -1 .. 4 lines
				if rng.Intn(5) == 0 {
					c.InvalidateRange(addr, size)
					ref.invalidateRange(addr, size)
					continue
				}
				ctx := Context(rng.Intn(int(numContexts)))
				if got, want := c.AccessRange(ctx, addr, size), ref.accessRange(ctx, addr, size); got != want {
					t.Fatalf("op %d: AccessRange(%v, %d, %d) = %d misses, reference %d", op, ctx, addr, size, got, want)
				}
			}
			for ctx := Context(0); ctx < numContexts; ctx++ {
				if got, want := c.Stats(ctx), ref.stats[ctx]; got != want {
					t.Fatalf("%v stats = %+v, reference %+v", ctx, got, want)
				}
				if c.Stats(ctx).Misses == 0 || c.Stats(ctx).Misses == c.Stats(ctx).Accesses {
					t.Fatalf("%v stats %+v: the mix should both hit and miss", ctx, c.Stats(ctx))
				}
			}
		})
	}
}

// BenchmarkAccessRange walks 1 kB copies over twice the L2's capacity, the
// shape of the kernel/user buffer copies behind Figure 10.
func BenchmarkAccessRange(b *testing.B) {
	c := New(PentiumIVL2())
	const span = 512 << 10
	b.SetBytes(1 << 10)
	for i := 0; i < b.N; i++ {
		c.AccessRange(Kernel, uint64(i*(1<<10)%span), 1<<10)
	}
}
