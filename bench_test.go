// Benchmarks regenerating every table and figure in the paper's evaluation
// (see DESIGN.md's per-experiment index), plus microbenchmarks of the
// framework's hot paths. Figure/table benches report the headline measured
// values as custom metrics so `go test -bench` output documents the
// reproduction directly.
package hydra_test

import (
	"testing"

	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/experiments"
	"hydra/internal/ilp"
	"hydra/internal/mpeg"
	"hydra/internal/netmodel"
	"hydra/internal/objfile"
	"hydra/internal/sim"
	"hydra/internal/testbed"
	"hydra/internal/tivopc"
)

// --- Figure 1 ---

func BenchmarkFigure1Transmit(b *testing.B) {
	m := netmodel.Foong2003()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, p := range m.Series(netmodel.Transmit) {
			last = p.Ratio
		}
	}
	b.ReportMetric(m.GHzPerGbps(netmodel.Transmit, 1024), "GHz/Gbps@1kB")
	b.ReportMetric(m.GHzPerGbps(netmodel.Transmit, 64), "GHz/Gbps@64B")
	_ = last
}

func BenchmarkFigure1Receive(b *testing.B) {
	m := netmodel.Foong2003()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, p := range m.Series(netmodel.Receive) {
			last = p.Ratio
		}
	}
	b.ReportMetric(m.GHzPerGbps(netmodel.Receive, 1024), "GHz/Gbps@1kB")
	b.ReportMetric(m.GHzPerGbps(netmodel.Receive, 64), "GHz/Gbps@64B")
	_ = last
}

// --- Table 2 / Figure 9 ---

func BenchmarkTable2Jitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2Figure9(experiments.DefaultSeed, experiments.QuickDuration)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				switch row.Scenario {
				case "Simple Server":
					b.ReportMetric(row.Measured.Median, "simple-median-ms")
				case "Sendfile Server":
					b.ReportMetric(row.Measured.Median, "sendfile-median-ms")
				case "Offloaded Server":
					b.ReportMetric(row.Measured.Median, "offloaded-median-ms")
					b.ReportMetric(row.Measured.StdDev, "offloaded-stddev-ms")
				}
			}
		}
	}
}

func BenchmarkFigure9JitterDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2Figure9(experiments.DefaultSeed, experiments.QuickDuration)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.RenderFigure9()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- Table 3 / Figure 10 ---

func BenchmarkTable3ServerCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3Figure10(experiments.DefaultSeed, experiments.QuickDuration)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				switch row.Scenario {
				case "Idle":
					b.ReportMetric(row.CPU.Mean, "idle-cpu-pct")
				case "Simple Server":
					b.ReportMetric(row.CPU.Mean, "simple-cpu-pct")
				case "Sendfile Server":
					b.ReportMetric(row.CPU.Mean, "sendfile-cpu-pct")
				case "Offloaded Server":
					b.ReportMetric(row.CPU.Mean, "offloaded-cpu-pct")
				}
			}
		}
	}
}

func BenchmarkFigure10L2Slowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3Figure10(experiments.DefaultSeed, experiments.QuickDuration)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				if row.Scenario == "Simple Server" {
					b.ReportMetric(row.L2Slowdown, "simple-l2-slowdown")
				}
				if row.Scenario == "Offloaded Server" {
					b.ReportMetric(row.L2Slowdown, "offloaded-l2-slowdown")
				}
			}
		}
	}
}

// --- Table 4 / X1 ---

func BenchmarkTable4ClientCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable4(experiments.DefaultSeed, experiments.QuickDuration)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				switch row.Scenario {
				case "User-space Client":
					b.ReportMetric(row.CPU.Mean, "user-cpu-pct")
					b.ReportMetric(100*row.MissDelta, "user-l2-delta-pct")
				case "Offloaded Client":
					b.ReportMetric(row.CPU.Mean, "offloaded-cpu-pct")
				}
			}
		}
	}
}

func BenchmarkClientL2Misses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := tivopc.RunClientScenario(tivopc.UserspaceClient, experiments.DefaultSeed, experiments.QuickDuration)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(run.L2Misses), "l2-misses")
			b.ReportMetric(float64(run.FramesDecoded), "frames")
		}
	}
}

// --- X2–X4 ablations ---

func BenchmarkLayoutILPvsGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunLayoutAblation(20, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*a.MeanGapFrac, "greedy-gap-pct")
			b.ReportMetric(a.MeanILPNodes, "ilp-nodes")
		}
	}
}

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

func BenchmarkChannelZeroCopyVsStaged(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunChannelAblation(8192, 64, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(a.StagedTime)/float64(a.ZeroCopyTime), "staged-vs-zc-slowdown")
		}
	}
}

func BenchmarkLoaderHostVsDevice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunLoaderAblation(32<<10, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(a.DeviceLink)/float64(a.HostLink), "devlink-vs-hostlink-slowdown")
		}
	}
}

// --- X6: NIC failover ---

func BenchmarkX6Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFailover(experiments.DefaultSeed, experiments.QuickDuration)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				if row.Scenario == "Single NIC Crash" {
					b.ReportMetric(row.DetectMS, "detect-ms")
					b.ReportMetric(row.MigrateMS, "migrate-ms")
					b.ReportMetric(row.Availability, "availability")
				}
			}
		}
	}
}

// --- X7: channel saturation ---

func BenchmarkX7Saturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSaturation(experiments.DefaultSeed, experiments.X7Duration)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				if row.RateHz != 50_000 {
					continue
				}
				switch row.Batch {
				case 1:
					b.ReportMetric(row.CyclesPerMsg, "permsg-cycles")
					b.ReportMetric(row.MeanLatencyMS, "permsg-lat-ms")
				case 32:
					b.ReportMetric(row.CyclesPerMsg, "batch32-cycles")
					b.ReportMetric(row.MeanLatencyMS, "batch32-lat-ms")
				}
			}
		}
	}
}

func BenchmarkX8Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunContention(experiments.DefaultSeed, experiments.X8Duration, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckContentionShape(r); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				if row.Apps == 12 && !row.TightQuota && row.Resolver == 0 {
					b.ReportMetric(float64(row.Admitted), "admitted")
					b.ReportMetric(float64(row.Rejected), "rejected")
					b.ReportMetric(float64(row.MinMsgs), "msgs-per-app")
					b.ReportMetric(float64(row.ReclaimedHostBytes), "reclaimed-B")
				}
			}
		}
	}
}

func BenchmarkX9Cluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCluster(experiments.DefaultSeed, experiments.X9Duration, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckClusterShape(r); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				switch row.Scenario {
				case "1 host":
					b.ReportMetric(row.MsgsPerSec, "msgs/s-1h")
				case "4 hosts":
					b.ReportMetric(row.MsgsPerSec, "msgs/s-4h")
				case "4 hosts, kill h3":
					b.ReportMetric(row.MigrationMS, "migration-ms")
				}
			}
		}
	}
}

// --- Framework microbenchmarks ---

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
