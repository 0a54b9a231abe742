// Package cache implements a set-associative, LRU-replacement cache model.
//
// The reproduction uses it as the host L2 (256 kB in the paper's testbed) to
// regenerate Figure 10: the paper measures the *kernel* L2 miss rate under
// each Video Server implementation, normalized to an idle system. What
// drives the figure is data movement — every kernel/user buffer copy walks
// cache lines and evicts the kernel's working set — so a trace-driven model
// that observes the same copies produces the same relative miss rates.
//
// Accesses are attributed to a context (kernel or user) so the experiment can
// report the kernel-only miss rate exactly as the paper does.
package cache

import (
	"math"
	"math/bits"
)

// Context labels who performed a memory access.
type Context int

const (
	// Kernel attributes the access to kernel-mode execution.
	Kernel Context = iota
	// User attributes the access to user-mode execution.
	User
	numContexts
)

func (c Context) String() string {
	switch c {
	case Kernel:
		return "kernel"
	case User:
		return "user"
	}
	return "invalid"
}

// Config describes cache geometry.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // cache line size
	Ways      int // associativity
}

// PentiumIVL2 mirrors the paper's testbed: 256 kB, 64 B lines, 8-way.
func PentiumIVL2() Config {
	return Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8}
}

// Stats counts accesses per context.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// Cache is the set-associative model. It is not safe for concurrent use;
// the simulation is single-threaded.
//
// Way w of set i sits at index i*Ways+w of three flat arrays. tags holds
// each line's tag plus one, so 0 marks an invalid way and an 8-way set's
// tags fill one 64-byte host line. lru holds each way's last-touch stamp
// (larger is more recent; 0 for an invalid way, so a miss fills invalid
// ways first). A way that holds a line of a resident Region has ownedBit
// set in lru and the region's index+1 in own, which the first region
// allocates; its effective stamp is the later of lru's stamp and the
// region's pending stamp for that line.
type Cache struct {
	cfg      Config
	tags     []uint64
	lru      []uint64
	own      []int32
	regions  []*Region
	floor    uint64 // at most the base of every resident region; MaxUint64 if none
	lineBits uint
	tagShift uint
	setMask  uint64
	stamp    uint64
	stats    [numContexts]Stats
}

// ownedBit marks an lru entry whose line a resident region holds. Stamps
// never reach it, so a marked way is never the plain minimum of its set.
const ownedBit = 1 << 63

// New builds a cache with the given geometry. SizeBytes must be a multiple
// of LineBytes*Ways, and the set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if cfg.SizeBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		panic("cache: size must be a multiple of LineBytes*Ways")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	numSets := lines / cfg.Ways
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic("cache: set count must be a non-zero power of two")
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, numSets*cfg.Ways),
		lru:      make([]uint64, numSets*cfg.Ways),
		floor:    math.MaxUint64,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift: uint(bits.TrailingZeros(uint(numSets))),
		setMask:  uint64(numSets - 1),
	}
}

// touchLine accesses one line address and reports the way that now holds
// it and whether it missed. The caller counts the access.
func (c *Cache) touchLine(lineAddr uint64) (int, bool) {
	c.stamp++
	set := lineAddr & c.setMask
	base := int(set) * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	lru := c.lru[base : base+len(tags)]
	tag := lineAddr>>c.tagShift + 1
	for w, t := range tags {
		if t == tag {
			lru[w] = lru[w]&ownedBit | c.stamp
			return base + w, false
		}
	}
	// The plain minimum skips marked ways. If it is older than every
	// resident region's base, no region line in the set can be older.
	oldest := lru[0]
	for _, s := range lru {
		oldest = min(oldest, s)
	}
	victim := 0
	for lru[victim] != oldest {
		victim++
	}
	if oldest >= c.floor {
		victim = c.oldestEffective(set, base)
	}
	if lru[victim]&ownedBit != 0 {
		c.regions[c.own[base+victim]-1].flush()
	}
	tags[victim], lru[victim] = tag, c.stamp
	return base + victim, true
}

// oldestEffective returns the way of the set at base with the oldest
// effective stamp. It first raises floor to the oldest resident region's
// base, so that the plain minimum settles the next misses.
func (c *Cache) oldestEffective(set uint64, base int) int {
	c.floor = math.MaxUint64
	for _, r := range c.regions {
		if r.base != 0 {
			c.floor = min(c.floor, r.base)
		}
	}
	victim, oldest := 0, uint64(math.MaxUint64)
	for w := 0; w < c.cfg.Ways; w++ {
		s := c.lru[base+w]
		if s&ownedBit != 0 {
			r := c.regions[c.own[base+w]-1]
			line := (c.tags[base+w]-1)<<c.tagShift | set
			s = max(s&^ownedBit, r.base+line-r.first)
		}
		if s < oldest {
			victim, oldest = w, s
		}
	}
	return victim
}

// AccessRange walks [addr, addr+size) one line at a time, modelling a
// sequential read or write such as a buffer copy. It returns the number of
// misses incurred.
func (c *Cache) AccessRange(ctx Context, addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first, last := addr>>c.lineBits, (addr+uint64(size)-1)>>c.lineBits
	misses := 0
	for l := first; l <= last; l++ {
		if _, miss := c.touchLine(l); miss {
			misses++
		}
	}
	st := &c.stats[ctx]
	st.Accesses += last - first + 1
	st.Misses += uint64(misses)
	return misses
}

// Stats reports counters for one context.
func (c *Cache) Stats(ctx Context) Stats { return c.stats[ctx] }

// TotalStats reports counters summed across contexts.
func (c *Cache) TotalStats() Stats {
	var t Stats
	for _, s := range c.stats {
		t.Accesses += s.Accesses
		t.Misses += s.Misses
	}
	return t
}

// InvalidateRange drops any lines covering [addr, addr+size) without
// counting accesses. It models non-allocating DMA writes to host memory:
// the device deposits fresh data, so stale cached copies must be discarded
// and the CPU's next read of the data misses.
func (c *Cache) InvalidateRange(addr uint64, size int) {
	if size <= 0 {
		return
	}
	last := (addr + uint64(size) - 1) >> c.lineBits
	for l := addr >> c.lineBits; l <= last; l++ {
		base := int(l&c.setMask) * c.cfg.Ways
		tag := l>>c.tagShift + 1
		for w := base; w < base+c.cfg.Ways; w++ {
			if c.tags[w] == tag {
				if c.lru[w]&ownedBit != 0 {
					c.regions[c.own[w]-1].flush()
				}
				c.tags[w], c.lru[w] = 0, 0
			}
		}
	}
}

// Region is a fixed line range that its owner walks whole, over and over,
// such as a daemon's resident working set. Walking it has exactly the
// effect of AccessRange over the same bytes, but while every line of the
// region is resident a walk is O(1): it counts its accesses, records base,
// the stamp its first line would get, and advances the stamp past its
// lines. Line first+k's effective stamp is then max(lru, base+k), which is
// the stamp a per-line walk would have left, so every hit, miss and victim
// is the same. Evicting or invalidating any of its lines writes those
// stamps back into lru and drops residency, and the next walk runs per
// line again.
type Region struct {
	c     *Cache
	ctx   Context
	id    int32   // own mark of the ways this region holds: index in regions + 1
	first uint64  // first line address
	ways  []int32 // way holding line first+k, valid while resident
	base  uint64  // stamp of line first at the latest walk; 0 while not resident
}

// NewRegion registers the lines covering [addr, addr+size) as a region
// walked in context ctx. It panics if the range is empty, overlaps another
// region, or puts more than Ways of its lines in one set, so that a walk
// would evict the region's own lines.
func (c *Cache) NewRegion(ctx Context, addr uint64, size int) *Region {
	if size <= 0 {
		panic("cache: empty region")
	}
	first, last := addr>>c.lineBits, (addr+uint64(size)-1)>>c.lineBits
	n := last - first + 1
	if n > uint64(len(c.tags)) {
		panic("cache: region puts more than Ways lines in one set")
	}
	for _, o := range c.regions {
		if first < o.first+uint64(len(o.ways)) && o.first <= last {
			panic("cache: region overlaps another region")
		}
	}
	if c.own == nil {
		c.own = make([]int32, len(c.tags))
	}
	r := &Region{c: c, ctx: ctx, id: int32(len(c.regions) + 1), first: first, ways: make([]int32, n)}
	c.regions = append(c.regions, r)
	return r
}

// Walk accesses every line of the region in order and returns the number
// of misses, exactly as AccessRange over the region's bytes would.
func (r *Region) Walk() int {
	c := r.c
	n := uint64(len(r.ways))
	c.stats[r.ctx].Accesses += n
	if r.base != 0 {
		r.base = c.stamp + 1
		c.stamp += n
		return 0
	}
	base := c.stamp + 1
	misses := 0
	for k := range r.ways {
		w, miss := c.touchLine(r.first + uint64(k))
		r.ways[k] = int32(w)
		if miss {
			misses++
		}
	}
	// No walked line can have been evicted by a later one: at most Ways of
	// them share a set, and they are the set's newest lines.
	for _, w := range r.ways {
		c.lru[w] |= ownedBit
		c.own[w] = r.id
	}
	r.base = base
	c.floor = min(c.floor, base)
	c.stats[r.ctx].Misses += uint64(misses)
	return misses
}

// flush writes the region's pending stamps into lru and drops residency.
func (r *Region) flush() {
	c := r.c
	for k, w := range r.ways {
		c.lru[w] = max(c.lru[w]&^ownedBit, r.base+uint64(k))
	}
	r.base = 0
}
