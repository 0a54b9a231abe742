package experiments

import (
	"fmt"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/obs"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
)

// TestSyscallTraceDeterminism runs every X11 rate cell with the recorder
// on every host engine and requires the per-call accounting on the trace
// (the CatSyscall issue→dispatch→complete records) to reconcile with the
// subsystem's own stats. TestGoldenBehaviour pins every rate's metrics
// and the top rate's trace hash.
func TestSyscallTraceDeterminism(t *testing.T) {
	for _, rate := range X11Rates {
		t.Run(fmt.Sprintf("rate=%d", rate), func(t *testing.T) {
			rows, tr, err := RunX11Cell(DefaultSeed, rate, &obs.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if n := tr.Dropped(); n != 0 {
				t.Fatalf("ring overflowed: %d records dropped", n)
			}
			trace := tr.Merged()
			if len(trace) == 0 {
				t.Fatal("trace is empty")
			}

			// The per-call trace surface must reconcile with the stats surface.
			counts := map[string]uint64{}
			for _, rec := range trace {
				if rec.Cat == obs.CatSyscall {
					counts[rec.Name]++
				}
			}
			var issued, completed, executed uint64
			for _, row := range rows {
				issued += row.Issued
				completed += row.Completed
				executed += row.Executed
			}
			if counts["syscall.issue"] != issued {
				t.Errorf("syscall.issue records = %d, stats say %d", counts["syscall.issue"], issued)
			}
			if counts["syscall.complete"] != completed {
				t.Errorf("syscall.complete records = %d, stats say %d", counts["syscall.complete"], completed)
			}
			if counts["syscall.dispatch"] != executed {
				t.Errorf("syscall.dispatch records = %d, stats say %d", counts["syscall.dispatch"], executed)
			}
			// The host-side exec spans carry the dispatch mode; both shapes must
			// appear (sync from the blocking host, async from the batched hosts).
			if counts["syscall.exec.sync"] == 0 || counts["syscall.exec.async"] == 0 {
				t.Errorf("exec spans missing: sync=%d async=%d",
					counts["syscall.exec.sync"], counts["syscall.exec.async"])
			}
			// Device-side end-to-end spans, named by op.
			if counts["syscall.call.clock"] != completed {
				t.Errorf("syscall.call.clock spans = %d, want %d", counts["syscall.call.clock"], completed)
			}
		})
	}
}

// A corrupt checkpoint staged for the syscall client fails its deployment
// with Restore's error, instead of being accepted and panicking later,
// when the client's channel connects.
func TestX11ClientRejectsBadCheckpoint(t *testing.T) {
	sys, err := testbed.New(DefaultSeed, testbed.Spec{Hosts: []testbed.HostSpec{{
		Name:    "h0",
		Devices: []device.Config{device.XScaleNIC("h0-nic")},
		Runtime: &core.Config{},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := sys.Host("h0")
	if err := stockX11Client(hs.Depot, x11SwapV1Path, 9980, &x11SwapShared{prof: syscall.BlockingProfile()}); err != nil {
		t.Fatal(err)
	}
	hs.Runtime.StageRestore(x11SwapBind, []byte("not a checkpoint"))
	_, deployErr := deployRoot(hs.Runtime.DefaultApp(), sys.Eng, x11SwapV1Path, x11SwapBind)
	if deployErr == nil || !strings.Contains(deployErr.Error(), "Restore") {
		t.Fatalf("deploy with a corrupt checkpoint: err %v, want the client's Restore error", deployErr)
	}
}
