package hostos

import (
	"testing"

	"hydra/internal/cache"
	"hydra/internal/sim"
)

// TestIdleLoadGolden pins the daemons' exact L2 counters for 10 simulated
// seconds on a fixed seed, alone and beside a copy loop whose 40 kB copies
// evict the resident sets and whose DMA writes land inside daemon 0's
// kernel set. Any change to which L2 accesses hit or miss moves them.
func TestIdleLoadGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		copies       bool
		kernel, user cache.Stats
	}{
		{"idle", false, cache.Stats{Accesses: 1978528, Misses: 234688}, cache.Stats{Accesses: 581920, Misses: 640}},
		{"idle+copy", true, cache.Stats{Accesses: 1978528, Misses: 660864}, cache.Stats{Accesses: 2715680, Misses: 137024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(11)
			m := New(eng, "host", PentiumIV())
			m.StartIdleLoad() // daemon 0's resident set starts at the first Alloc, 1 MB
			if tc.copies {
				task := m.NewTask("copier")
				src, dst := m.Alloc(40<<10), m.Alloc(40<<10)
				var loop func()
				loop = func() {
					m.DMAWrite(1<<20+4<<10, 8<<10)
					task.Copy(cache.User, src, dst, 40<<10, func() {
						task.Sleep(5*sim.Millisecond, loop)
					})
				}
				eng.Schedule(3*sim.Millisecond, loop)
			}
			eng.Run(10 * sim.Second)
			k, u := m.L2().Stats(cache.Kernel), m.L2().Stats(cache.User)
			if k != tc.kernel || u != tc.user {
				t.Fatalf("kernel %+v user %+v, want %+v and %+v", k, u, tc.kernel, tc.user)
			}
		})
	}
}
