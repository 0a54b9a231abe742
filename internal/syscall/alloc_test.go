package syscall

import (
	"testing"

	"hydra/internal/sim"
)

// stormProfile is the batch-8 asynchronous plane of perfbench's
// syscall-storm workload.
func stormProfile() Profile {
	return Profile{Batch: 8, Coalesce: 50 * sim.Microsecond, Credits: 64, Workers: 1}
}

// burst issues a full credit window of async clock syscalls, runs the
// plane until every one completes, and returns how many did.
func (r *rig) burst(tb testing.TB) int {
	done := 0
	k := func(*Completion) { done++ }
	for j := 0; j < stormProfile().Credits; j++ {
		if err := r.iss.Issue(OpClock, ModeAsync, nil, k); err != nil {
			tb.Fatal(err)
		}
	}
	r.eng.RunAll()
	if done != stormProfile().Credits {
		tb.Fatalf("burst completed %d of %d syscalls", done, stormProfile().Credits)
	}
	return done
}

// warmRig builds a batch-8 plane and runs it until every pool, and the
// host's reply cache ring, has reached its steady-state size.
func warmRig(tb testing.TB) *rig {
	r := newRig(tb, stormProfile(), nil)
	for n := 0; n < 2*replyCacheSize; {
		n += r.burst(tb)
	}
	return r
}

// A steady-state syscall round trip — request marshal, device segments,
// the channel in both directions, the host worker pool and execution,
// the cached reply, completion decode and delivery — allocates nothing
// on the hot path: the records are pooled and no value is boxed. The
// bound leaves room for latency-record growth.
func TestSyscallRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := warmRig(t)
	perBurst := testing.AllocsPerRun(50, func() { r.burst(t) })
	perCall := perBurst / float64(stormProfile().Credits)
	t.Logf("%.2f allocations per completed syscall", perCall)
	if perCall > 0.5 {
		t.Fatalf("%.2f allocations per completed syscall, want at most 0.5", perCall)
	}
}

// BenchmarkSyscallRoundTrip reports the host cost of one steady-state
// async clock syscall on the batch-8 plane (one op = one completion).
func BenchmarkSyscallRoundTrip(b *testing.B) {
	r := warmRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		n += r.burst(b)
	}
}
