package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B cache.
	return New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if !c.Touch(Kernel, 0) {
		t.Fatal("first access should miss")
	}
	if c.Touch(Kernel, 0) {
		t.Fatal("second access should hit")
	}
	if c.Touch(Kernel, 63) {
		t.Fatal("same-line access should hit")
	}
	if !c.Touch(Kernel, 64) {
		t.Fatal("next-line access should miss")
	}
	st := c.Stats(Kernel)
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets; addresses 0, 256, 512 map to set 0 (stride 4*64)
	c.Touch(Kernel, 0)
	c.Touch(Kernel, 256)
	c.Touch(Kernel, 0)   // make line 0 most recent
	c.Touch(Kernel, 512) // evicts 256 (LRU), not 0
	if c.Touch(Kernel, 0) {
		t.Fatal("line 0 was evicted but was most recently used")
	}
	if !c.Touch(Kernel, 256) {
		t.Fatal("line 256 should have been evicted")
	}
}

func TestContextsSeparate(t *testing.T) {
	c := small()
	c.Touch(Kernel, 0)
	c.Touch(User, 1024)
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
			c.Touch(User, uint64(a))
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
			c.Touch(User, uint64(a))
			if c.Touch(User, uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
