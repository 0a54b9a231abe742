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

import "math/bits"

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
// Way w of set i sits at index i*Ways+w of two flat arrays. tags holds each
// line's tag plus one, so 0 marks an invalid way and an 8-way set's tags
// fill one 64-byte host line. lru holds each way's last-touch stamp (larger
// is more recent; 0 for an invalid way, so a miss fills invalid ways first).
type Cache struct {
	cfg      Config
	tags     []uint64
	lru      []uint64
	lineBits uint
	tagShift uint
	setMask  uint64
	stamp    uint64
	stats    [numContexts]Stats
}

// New builds a cache with the given geometry. SizeBytes must be a multiple
// of LineBytes*Ways, and the set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: non-positive geometry")
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
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift: uint(bits.TrailingZeros(uint(numSets))),
		setMask:  uint64(numSets - 1),
	}
}

// touchLine accesses one line address and reports whether it missed. The
// caller counts the access.
func (c *Cache) touchLine(lineAddr uint64) bool {
	c.stamp++
	base := int(lineAddr&c.setMask) * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	lru := c.lru[base : base+len(tags)]
	tag := lineAddr>>c.tagShift + 1
	for w, t := range tags {
		if t == tag {
			lru[w] = c.stamp
			return false // hit
		}
	}
	victim := 0
	for w := range lru {
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim], lru[victim] = tag, c.stamp
	return true
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
		if c.touchLine(l) {
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
				c.tags[w], c.lru[w] = 0, 0
			}
		}
	}
}
