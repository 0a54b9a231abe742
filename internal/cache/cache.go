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

type line struct {
	valid bool
	tag   uint64
	lru   uint64 // last-touch stamp; larger is more recent
}

// Cache is the set-associative model. It is not safe for concurrent use;
// the simulation is single-threaded.
type Cache struct {
	cfg      Config
	sets     [][]line
	numSets  int
	lineBits uint
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
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	if 1<<lineBits != cfg.LineBytes {
		panic("cache: line size must be a power of two")
	}
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		numSets:  numSets,
		lineBits: lineBits,
		setMask:  uint64(numSets - 1),
	}
}

// Touch accesses one address and reports whether it missed.
func (c *Cache) Touch(ctx Context, addr uint64) bool {
	c.stamp++
	lineAddr := addr >> c.lineBits
	setIdx := lineAddr & c.setMask
	tag := lineAddr >> uint64(bitsFor(c.numSets))
	set := c.sets[setIdx]

	st := &c.stats[ctx]
	st.Accesses++

	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			return false // hit
		}
		if !set[i].valid {
			victim = i
			victimLRU = 0
		} else if set[i].lru < victimLRU {
			victim = i
			victimLRU = set[i].lru
		}
	}
	set[victim] = line{valid: true, tag: tag, lru: c.stamp}
	st.Misses++
	return true
}

// AccessRange walks [addr, addr+size) one line at a time, modelling a
// sequential read or write such as a buffer copy. It returns the number of
// misses incurred.
func (c *Cache) AccessRange(ctx Context, addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	misses := 0
	lineSize := uint64(c.cfg.LineBytes)
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(size) - 1) &^ (lineSize - 1)
	for a := first; ; a += lineSize {
		if c.Touch(ctx, a) {
			misses++
		}
		if a == last {
			break
		}
	}
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
	lineSize := uint64(c.cfg.LineBytes)
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(size) - 1) &^ (lineSize - 1)
	for a := first; ; a += lineSize {
		lineAddr := a >> c.lineBits
		setIdx := lineAddr & c.setMask
		tag := lineAddr >> uint64(bitsFor(c.numSets))
		set := c.sets[setIdx]
		for i := range set {
			if set[i].valid && set[i].tag == tag {
				set[i] = line{}
			}
		}
		if a == last {
			break
		}
	}
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
