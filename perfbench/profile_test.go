package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// syntheticTraces is `go tool pprof -traces -unit=ns` output, one sample
// per fold rule.
const syntheticTraces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 48000000ns (4.80%)
-----------+-------------------------------------------------------
  10000000ns   runtime.mallocgc
             hydra/internal/nfs.(*Server).handle
             hydra/internal/sim.(*Engine).Run
             main.runRep
-----------+-------------------------------------------------------
  20000000ns   hydra/internal/channel.(*Endpoint).Write (inline)
             hydra/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
   5000000ns   runtime.mapassign_faststr
             main.(*callTimes).done
             main.(*dpShard).complete
             hydra/internal/device.(*Device).pump
             hydra/internal/sim.(*Engine).Run
             main.runRep
-----------+-------------------------------------------------------
   7000000ns   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
   3000000ns   hydra/internal/obs.(*Shard).On
             hydra/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
   3000000ns   runtime.memmove
             hydra/perfbench.spinFor
-----------+-------------------------------------------------------
`

func TestFoldToFirstDecidingFrame(t *testing.T) {
	got, err := foldTraces(syntheticTraces)
	if err != nil {
		t.Fatal(err)
	}
	// The runtime frames under harness glue that a device frame called
	// back into fold to bench, not to device.
	want := map[string]float64{"nfs": 10e6, "channel": 20e6, "bench": 8e6, "runtime.gc": 7e6, "other": 3e6}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %v ns, want %v", k, got[k], v)
		}
	}
	if _, err := foldTraces("x\n" + traceSep + "\n  10ms   main.f\n" + traceSep + "\n"); err == nil {
		t.Error("a sample value not in ns must be refused")
	}
}

func spinFor(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spinFor(300 * time.Millisecond)
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range got {
		total += v
	}
	if got["bench"] < 0.5*total || total == 0 {
		t.Fatalf("harness spin folded to %v", got)
	}
}
