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
		{SizeBytes: 576, LineBytes: 64, Ways: 2}, // 4.5 sets
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
// value and every per-context counter must agree. A second mix adds
// regions, walked whole and over again, and long repeated ranges of up to
// Ways*numSets lines; its accesses and invalidations land on region lines,
// so regions lose residency by eviction and by invalidation, and
// their pending stamps must be written back exactly.
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
			checkStats(t, c, ref)
		})
		t.Run(tc.name+"Regions", func(t *testing.T) {
			c, ref := New(tc.cfg), newRef(tc.cfg)
			capLines := tc.cfg.SizeBytes / tc.cfg.LineBytes // Ways*numSets
			line := tc.cfg.LineBytes
			rng := rand.New(rand.NewSource(2))
			// Regions of 1 to capLines lines, unaligned, with gaps, over
			// about twice the capacity, so they evict one another.
			var regions []walked
			for next := uint64(line); len(regions) < 6; {
				n := 1 + rng.Intn(capLines/2)
				if len(regions) == 0 {
					n = capLines // the largest region that stays resident
				}
				addr := next + uint64(rng.Intn(line))
				size := (n-1)*line + 1
				ctx := Context(rng.Intn(int(numContexts)))
				regions = append(regions, walked{c.NewRegion(ctx, addr, size), addr, size})
				next = (addr+uint64(size)+uint64(line)-1)&^uint64(line-1) + uint64(rng.Intn(4)*line)
			}
			end := regions[len(regions)-1].addr + uint64(regions[len(regions)-1].size)
			longAddr := uint64(rng.Intn(int(end)))
			var lazy, evicted, invalidated int
			for op := 0; op < 4000; op++ {
				switch k := rng.Intn(10); {
				case k < 5:
					i := rng.Intn(len(regions))
					if rng.Intn(3) > 0 {
						i = op / 50 % len(regions) // bursts that repeat one region
					}
					s := regions[i]
					if s.r.base != 0 {
						lazy++
					}
					if got, want := s.r.Walk(), ref.accessRange(s.r.ctx, s.addr, s.size); got != want {
						t.Fatalf("op %d: region %d Walk = %d misses, reference %d", op, i, got, want)
					}
				case k < 8:
					addr, size := uint64(rng.Intn(int(end))), rng.Intn(4*line+2)-1
					if k == 7 { // a long range, often the same one again
						if rng.Intn(2) == 0 {
							longAddr = uint64(rng.Intn(int(end)))
						}
						addr, size = longAddr, rng.Intn(capLines*line)+1
					}
					ctx := Context(rng.Intn(int(numContexts)))
					before := resident(regions)
					if got, want := c.AccessRange(ctx, addr, size), ref.accessRange(ctx, addr, size); got != want {
						t.Fatalf("op %d: AccessRange(%v, %d, %d) = %d misses, reference %d", op, ctx, addr, size, got, want)
					}
					evicted += before - resident(regions)
				default:
					addr, size := uint64(rng.Intn(int(end))), rng.Intn(16*line)
					before := resident(regions)
					c.InvalidateRange(addr, size)
					ref.invalidateRange(addr, size)
					invalidated += before - resident(regions)
				}
			}
			checkStats(t, c, ref)
			if lazy == 0 || evicted == 0 || invalidated == 0 {
				t.Fatalf("mix did not cover every path: %d lazy walks, %d regions lost to eviction, %d to invalidation", lazy, evicted, invalidated)
			}
		})
	}
}

func TestNewRegionRejects(t *testing.T) {
	c := small()                       // 4 sets x 2 ways: a region may cover at most 8 lines
	c.NewRegion(Kernel, 0, 8*64)       // lines 0..7, the largest allowed
	c.NewRegion(User, 8*64, 64)        // line 8, adjacent
	c.NewRegion(User, 21*64+1, 6*64-1) // lines 21..26, unaligned
	for _, tc := range []struct {
		name string
		addr uint64
		size int
	}{
		{"same range", 0, 8 * 64},
		{"overlaps the end", 7 * 64, 64},
		{"shares a line", 8*64 + 63, 2},
		{"contains another", 20 * 64, 8 * 64},
		{"9 lines", 1 << 20, 9 * 64},
		{"8 lines of bytes over 9 lines", 1<<20 + 1, 8 * 64},
		{"empty", 1 << 20, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewRegion(%d, %d) did not panic", tc.name, tc.addr, tc.size)
				}
			}()
			c.NewRegion(Kernel, tc.addr, tc.size)
		}()
	}
	if len(c.regions) != 3 {
		t.Fatalf("%d regions registered, want 3", len(c.regions))
	}
}

// walked is a region with the bytes it covers, for the reference model.
type walked struct {
	r    *Region
	addr uint64
	size int
}

// resident counts the regions whose next walk is O(1). Only a walk makes a
// region resident, so a drop across an access or an invalidation counts
// the regions it took residency from.
func resident(regions []walked) int {
	n := 0
	for _, s := range regions {
		if s.r.base != 0 {
			n++
		}
	}
	return n
}

func checkStats(t *testing.T, c *Cache, ref *refCache) {
	t.Helper()
	for ctx := Context(0); ctx < numContexts; ctx++ {
		if got, want := c.Stats(ctx), ref.stats[ctx]; got != want {
			t.Fatalf("%v stats = %+v, reference %+v", ctx, got, want)
		}
		if c.Stats(ctx).Misses == 0 || c.Stats(ctx).Misses == c.Stats(ctx).Accesses {
			t.Fatalf("%v stats %+v: the mix should both hit and miss", ctx, c.Stats(ctx))
		}
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

// BenchmarkIdleLoad drives the idle daemons' pattern from hostos: four
// daemons, each walking a 30 kB kernel and a 10 kB user resident set as
// regions plus the next 4 kB of its own rotating 2 MB stream, waking in
// turn. Addresses follow the host allocator's layout. It reports host ns
// per line walked and the L2 miss rate.
func BenchmarkIdleLoad(b *testing.B) {
	const (
		daemons  = 4
		kernel   = 30 << 10
		user     = 10 << 10
		stream   = 4 << 10
		rotating = 2 << 20
		lines    = (kernel + user + stream) / 64
	)
	c := New(PentiumIVL2())
	type daemon struct {
		kernelSet, userSet *Region
		stream             uint64
		off                int
	}
	var ds [daemons]daemon
	next := uint64(1 << 20)
	for i := range ds {
		ds[i].kernelSet = c.NewRegion(Kernel, next, kernel)
		ds[i].userSet = c.NewRegion(User, next+kernel, user)
		ds[i].stream = next + kernel + user
		next += kernel + user + rotating
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &ds[i%daemons]
		d.kernelSet.Walk()
		d.userSet.Walk()
		c.AccessRange(Kernel, d.stream+uint64(d.off), stream)
		d.off = (d.off + stream) % (rotating - stream)
	}
	b.StopTimer()
	st := c.TotalStats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
	b.ReportMetric(float64(st.Misses)/float64(st.Accesses), "miss_rate")
}
