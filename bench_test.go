// Microbenchmarks of the framework's hot paths: the ILP solver, a
// host-to-device channel message, the linker, HOBJ encode/decode, the MPEG
// codec and the simulation engine's event loop. The paper's tables and
// figures and the X2–X12 ablations are regenerated by cmd/hydra-bench,
// whose golden test pins their results.
package hydra_test

import (
	"testing"

	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/ilp"
	"hydra/internal/mpeg"
	"hydra/internal/objfile"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

func BenchmarkILPSolverScaling(b *testing.B) {
	// 12 offcodes × 4 targets with gang edges and budgets.
	build := func() *ilp.Problem {
		const N, K = 12, 4
		idx := func(n, k int) int { return n*K + k }
		p := &ilp.Problem{NumVars: N * K, Objective: make([]float64, N*K)}
		for n := 0; n < N; n++ {
			for k := 1; k < K; k++ {
				p.Objective[idx(n, k)] = float64(1 + n%3)
			}
			c := ilp.Constraint{Coeffs: map[int]float64{}, Sense: ilp.EQ, RHS: 1}
			for k := 0; k < K; k++ {
				c.Coeffs[idx(n, k)] = 1
			}
			p.AddConstraint(c)
		}
		for k := 1; k < K; k++ {
			c := ilp.Constraint{Coeffs: map[int]float64{}, Sense: ilp.LE, RHS: 4}
			for n := 0; n < N; n++ {
				c.Coeffs[idx(n, k)] = 1
			}
			p.AddConstraint(c)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ilp.Solve(build(), ilp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelMessageHostToDevice(b *testing.B) {
	sys, err := testbed.New(1, testbed.Spec{
		Name: "bench-1nic",
		Hosts: []testbed.HostSpec{{
			Name:    "host",
			Devices: []device.Config{device.XScaleNIC("nic0")},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, nic := sys.Eng, sys.Device("nic0")
	host, bsys := sys.Host("host").Machine, sys.Host("host").Bus
	app := channel.HostEndpoint(host, "app")
	ch, err := channel.New(eng, bsys, channel.DefaultConfig(), app)
	if err != nil {
		b.Fatal(err)
	}
	oc := channel.DeviceEndpoint(nic, "oc")
	if err := ch.Connect(oc); err != nil {
		b.Fatal(err)
	}
	oc.InstallCallHandler(func([]byte) {})
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.Write(payload); err != nil {
			b.Fatal(err)
		}
		eng.RunAll()
	}
}

func BenchmarkLinker(b *testing.B) {
	obj := objfile.Synthesize("bench", 1, 64<<10,
		[]string{"a.f", "b.f", "c.f", "d.f", "e.f", "f.f", "g.f", "h.f"})
	exports := map[string]uint64{
		"a.f": 1, "b.f": 2, "c.f": 3, "d.f": 4, "e.f": 5, "f.f": 6, "g.f": 7, "h.f": 8,
	}
	b.SetBytes(int64(obj.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := objfile.Link(obj, 0x1000, exports); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHOBJEncodeDecode(b *testing.B) {
	obj := objfile.Synthesize("bench", 1, 16<<10, []string{"a.f", "b.f"})
	b.SetBytes(int64(obj.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := objfile.Decode(obj.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPEGEncode(b *testing.B) {
	cfg := mpeg.Config{W: 320, H: 240, GOPSize: 12, BGap: 2}
	frames := mpeg.GenerateVideo(cfg, 12)
	b.SetBytes(int64(12 * cfg.W * cfg.H))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpeg.Encode(cfg, frames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPEGDecode(b *testing.B) {
	cfg := mpeg.Config{W: 320, H: 240, GOPSize: 12, BGap: 2}
	stream, err := mpeg.Encode(cfg, mpeg.GenerateVideo(cfg, 12))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := mpeg.NewDecoder()
		got := dec.Feed(stream)
		got = append(got, dec.Flush()...)
		if len(got) != 12 {
			b.Fatalf("decoded %d frames", len(got))
		}
	}
}

// BenchmarkSimulationEngine times the event hot path: one engine,
// b.N chained fire→reschedule steps. Construction happens once, outside
// the timed region, so ns/op and allocs/op are per event.
func BenchmarkSimulationEngine(b *testing.B) {
	eng := sim.NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			eng.Schedule(10, chain)
		}
	}
	eng.Schedule(1, chain)
	eng.RunAll()
}
