package hostos

import (
	"fmt"

	"hydra/internal/cache"
	"hydra/internal/sim"
)

// The idle load models the background activity of an otherwise idle
// machine. The paper's "idle system" is not truly quiescent: it shows 2.86%
// CPU utilization and a steady kernel L2 miss rate (Figure 10 normalizes to
// it). We model that as a handful of periodic daemons — kernel threads,
// cron-style housekeeping, page-cache writeback — each waking on a timer,
// re-walking a resident working set (hits) plus a slice of a large rotating
// buffer (cold misses: writeback, log append, fresh pages), and burning a
// roughly constant cycle budget with a little run-to-run variation.
//
// The values are calibrated so a PentiumIV machine shows the paper's idle
// profile: ≈2.9% CPU with a small stddev, and a kernel L2 miss rate around
// 8-10% — a stable baseline for Figure 10's normalization.
const (
	idleDaemons        int     = 4                    // number of background tasks
	idlePeriod                 = 10 * sim.Millisecond // wake period per daemon
	idleCyclesPerWake  uint64  = 182_000              // mean work per wake, ≈76 µs at 2.4 GHz
	idleCycleJitter    float64 = 0.012                // uniform ± fraction on idleCyclesPerWake
	idleResidentBytes  int     = 40 << 10             // per-daemon resident set walked each wake (hits)
	idleStreamBytes    int     = 4 << 10              // per-daemon cold bytes walked each wake (misses)
	idleStreamRegion   int     = 2 << 20              // size of the rotating cold region
	idleKernelFraction float64 = 0.75                 // fraction of daemon work in kernel context
)

// StartIdleLoad launches the background daemons on m. Experiments start it
// on every host so "idle" scenarios measure the same baseline the paper's
// idle rows report.
func (m *Machine) StartIdleLoad() {
	for i := 0; i < idleDaemons; i++ {
		t := m.NewTask(fmt.Sprintf("daemon%d", i))
		resident := m.Alloc(idleResidentBytes)
		stream := m.Alloc(idleStreamRegion)
		streamOff := 0
		rng := m.eng.NewRand(int64(1000 + i))

		var wake func()
		wake = func() {
			kBytes := int(float64(idleResidentBytes) * idleKernelFraction)
			m.l2.AccessRange(cache.Kernel, resident, kBytes)
			m.l2.AccessRange(cache.User, resident+uint64(kBytes), idleResidentBytes-kBytes)
			m.l2.AccessRange(cache.Kernel, stream+uint64(streamOff), idleStreamBytes)
			streamOff = (streamOff + idleStreamBytes) % (idleStreamRegion - idleStreamBytes)

			cycles := float64(idleCyclesPerWake) *
				(1 + idleCycleJitter*(2*rng.Float64()-1))
			kc := uint64(cycles * idleKernelFraction)
			uc := uint64(cycles) - kc
			t.Syscall(kc, func() {
				t.Compute(uc, func() {
					t.Sleep(idlePeriod, wake)
				})
			})
		}
		// Stagger daemon phases so they do not wake in lockstep.
		phase := sim.Time(i) * idlePeriod / sim.Time(idleDaemons)
		m.eng.Schedule(phase, wake)
	}
}
