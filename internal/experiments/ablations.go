package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/layout"
	"hydra/internal/odf"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/testbed"
)

// oneNICSpec is the single-host micro-testbed the X3/X4 ablations run on:
// a PentiumIV host with one programmable NIC, plus a runtime when rt is
// non-nil.
func oneNICSpec(rt *core.Config) testbed.Spec {
	return testbed.Spec{
		Name: "ablation-1nic",
		Hosts: []testbed.HostSpec{{
			Name:    "host",
			Devices: []device.Config{device.XScaleNIC("nic0")},
			Runtime: rt,
		}},
	}
}

// --- X2: greedy vs ILP layout resolution (§5) ---

// LayoutAblation quantifies the paper's claim that "for complex scenarios a
// greedy solution is not always optimal".
type LayoutAblation struct {
	Graphs         int
	GreedyWins     int // greedy matched the optimum
	MeanGapFrac    float64
	WorstGapFrac   float64
	MeanILPNodes   float64
	GreedyFailures int
}

// RunLayoutAblation solves random capacity-constrained layout graphs with
// both resolvers and reports the optimality gap.
func RunLayoutAblation(graphs int, seed int64) (*LayoutAblation, error) {
	rng := rand.New(rand.NewSource(seed))
	out := &LayoutAblation{Graphs: graphs}
	var gapSum float64
	for g := 0; g < graphs; g++ {
		graph := randomBudgetGraph(rng)
		place, sol, err := graph.SolveILP(layout.MaximizeBusUsage)
		if err != nil {
			return nil, fmt.Errorf("experiments: ILP on graph %d: %w", g, err)
		}
		_ = place
		out.MeanILPNodes += float64(sol.Nodes)
		gp, err := graph.SolveGreedy(layout.MaximizeBusUsage)
		if err != nil {
			out.GreedyFailures++
			gapSum += 1
			continue
		}
		gv := graph.ObjectiveValue(gp, layout.MaximizeBusUsage)
		gap := 0.0
		if sol.Objective > 0 {
			gap = (sol.Objective - gv) / sol.Objective
		}
		if gap <= 1e-9 {
			out.GreedyWins++
		}
		gapSum += gap
		if gap > out.WorstGapFrac {
			out.WorstGapFrac = gap
		}
	}
	out.MeanGapFrac = gapSum / float64(graphs)
	out.MeanILPNodes /= float64(graphs)
	return out, nil
}

func randomBudgetGraph(rng *rand.Rand) *layout.Graph {
	devs := []layout.Target{
		{Name: "nic0", Class: device.Class{ID: 1, Name: "Network Device"}, BusCapacity: float64(rng.Intn(12) + 6)},
		{Name: "disk0", Class: device.Class{ID: 2, Name: "Storage Device"}, BusCapacity: float64(rng.Intn(12) + 6)},
		{Name: "gpu0", Class: device.Class{ID: 3, Name: "Display Device"}, BusCapacity: float64(rng.Intn(12) + 6)},
	}
	g := layout.NewGraph(devs...)
	n := rng.Intn(8) + 6
	for i := 0; i < n; i++ {
		compat := make([]bool, g.K())
		compat[0] = true
		for k := 1; k < g.K(); k++ {
			compat[k] = rng.Intn(3) > 0
		}
		g.AddNode(fmt.Sprintf("oc%d", i), guid.GUID(i+1), float64(rng.Intn(7)+2), compat)
	}
	for e := 0; e < n/2; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b, []odf.ConstraintType{odf.Link, odf.Gang, odf.AsymmetricGang}[rng.Intn(3)])
		}
	}
	return g
}

// Render prints the ablation summary.
func (a *LayoutAblation) Render() string {
	var b strings.Builder
	b.WriteString("X2 — Layout resolution: greedy vs ILP (Maximize Bus Usage, random graphs)\n")
	fmt.Fprintf(&b, "  graphs: %d  greedy optimal: %d (%.0f%%)  greedy infeasible: %d\n",
		a.Graphs, a.GreedyWins, 100*float64(a.GreedyWins)/float64(a.Graphs), a.GreedyFailures)
	fmt.Fprintf(&b, "  mean optimality gap: %.1f%%  worst: %.1f%%  mean B&B nodes: %.0f\n",
		100*a.MeanGapFrac, 100*a.WorstGapFrac, a.MeanILPNodes)
	b.WriteString("  (paper §5: simple graphs are trivial; complex ones need the ILP)\n")
	return b.String()
}

// --- X3: zero-copy vs staged channels (§4.1) ---

// ChannelAblation compares the two buffering policies on one channel.
type ChannelAblation struct {
	MsgBytes               int
	Messages               int
	ZeroCopyTime           sim.Time
	StagedTime             sim.Time
	ZeroCopyKernelAccesses uint64
	StagedKernelAccesses   uint64
}

// RunChannelAblation streams messages host→NIC under both policies.
func RunChannelAblation(msgBytes, messages int, seed int64) (*ChannelAblation, error) {
	run := func(zero bool) (sim.Time, uint64, error) {
		sys, err := testbed.New(seed, oneNICSpec(nil))
		if err != nil {
			return 0, 0, err
		}
		eng := sys.Eng
		host := sys.Host("host").Machine
		nic := sys.Device("nic0")
		cfg := channel.DefaultConfig()
		cfg.ZeroCopyRead = zero
		cfg.ZeroCopyWrite = zero
		cfg.MaxMessage = msgBytes
		app := channel.HostEndpoint(host, "app")
		ch, err := channel.New(eng, sys.Host("host").Bus, cfg, app)
		if err != nil {
			return 0, 0, err
		}
		oc := channel.DeviceEndpoint(nic, "oc")
		if err := ch.Connect(oc); err != nil {
			return 0, 0, err
		}
		got := 0
		oc.InstallCallHandler(func([]byte) { got++ })
		payload := make([]byte, msgBytes)
		for i := 0; i < messages; i++ {
			if err := app.Write(payload); err != nil {
				return 0, 0, err
			}
		}
		eng.RunAll()
		if got != messages {
			return 0, 0, fmt.Errorf("delivered %d of %d", got, messages)
		}
		return eng.Now(), host.L2().TotalStats().Accesses, nil
	}
	out := &ChannelAblation{MsgBytes: msgBytes, Messages: messages}
	var err error
	if out.ZeroCopyTime, out.ZeroCopyKernelAccesses, err = run(true); err != nil {
		return nil, err
	}
	if out.StagedTime, out.StagedKernelAccesses, err = run(false); err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints the channel ablation.
func (a *ChannelAblation) Render() string {
	var b strings.Builder
	b.WriteString("X3 — Channel buffering: zero-copy vs staged (§4.1)\n")
	fmt.Fprintf(&b, "  %d × %d B host→NIC\n", a.Messages, a.MsgBytes)
	fmt.Fprintf(&b, "  zero-copy: %-12v  %8d cache accesses\n", a.ZeroCopyTime, a.ZeroCopyKernelAccesses)
	fmt.Fprintf(&b, "  staged:    %-12v  %8d cache accesses  (%.2fx slower)\n",
		a.StagedTime, a.StagedKernelAccesses,
		float64(a.StagedTime)/float64(a.ZeroCopyTime))
	return b.String()
}

// --- X4: host-link vs device-link loading (§4.2) ---

// LoaderAblation compares the two dynamic-loading strategies.
type LoaderAblation struct {
	ObjectBytes   int
	Relocs        int
	HostLink      sim.Time
	DeviceLink    sim.Time
	HostLinkMem   int
	DeviceLinkMem int
}

// RunLoaderAblation deploys the same Offcode under both loaders.
func RunLoaderAblation(objectBytes int, seed int64) (*LoaderAblation, error) {
	run := func(kind core.LoaderKind) (sim.Time, int, int, error) {
		sys, err := testbed.New(seed, oneNICSpec(&core.Config{Loader: kind}))
		if err != nil {
			return 0, 0, 0, err
		}
		eng := sys.Eng
		nic := sys.Device("nic0")
		h := sys.Host("host")
		dep, rt := h.Depot, h.Runtime
		if err := stockOffcode(dep, "/oc.odf", "bench.oc", 77, objectBytes,
			[]string{"hydra.Heap.Alloc", "hydra.Channel.Write", "hydra.Runtime.GetOffcode", "hydra.Channel.Read"},
			func() any { return &nopOffcode{} }); err != nil {
			return 0, 0, 0, err
		}
		obj, _ := dep.Object(77)
		plan := rt.DefaultApp().Plan()
		if err := plan.AddRoot("/oc.odf"); err != nil {
			return 0, 0, 0, err
		}
		if err := settle("x4: deployment", func(done func(error)) {
			plan.Commit(func(_ *core.Deployment, err error) { done(err) })
		}, func() { eng.RunAll() }); err != nil {
			return 0, 0, 0, err
		}
		return eng.Now(), nic.MemUsed(), len(obj.Relocs), nil
	}
	out := &LoaderAblation{ObjectBytes: objectBytes}
	var err error
	if out.HostLink, out.HostLinkMem, out.Relocs, err = run(core.LoaderHostLink); err != nil {
		return nil, err
	}
	if out.DeviceLink, out.DeviceLinkMem, _, err = run(core.LoaderDeviceLink); err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints the loader ablation.
func (a *LoaderAblation) Render() string {
	var b strings.Builder
	b.WriteString("X4 — Dynamic loading: host-link vs device-link (§4.2)\n")
	fmt.Fprintf(&b, "  object: %d B, %d relocations\n", a.ObjectBytes, a.Relocs)
	fmt.Fprintf(&b, "  host-link:   deploy in %-10v device mem %6d B\n", a.HostLink, a.HostLinkMem)
	fmt.Fprintf(&b, "  device-link: deploy in %-10v device mem %6d B (%.2fx slower, %.2fx memory)\n",
		a.DeviceLink, a.DeviceLinkMem,
		float64(a.DeviceLink)/float64(a.HostLink),
		float64(a.DeviceLinkMem)/float64(a.HostLinkMem))
	b.WriteString("  (paper: device-side loading is \"quite expensive in terms of device resources\")\n")
	return b.String()
}

// Shape checks used by tests and the report generator.

// CheckJitterShape verifies the qualitative Table 2 result.
func CheckJitterShape(r *JitterResults) error {
	var simple, sendfile, off stats.Summary
	for _, row := range r.Rows {
		switch row.Scenario {
		case "Simple Server":
			simple = row.Measured
		case "Sendfile Server":
			sendfile = row.Measured
		case "Offloaded Server":
			off = row.Measured
		}
	}
	if !(simple.Median > sendfile.Median && sendfile.Median > off.Median) {
		return fmt.Errorf("median ordering broken: %.2f / %.2f / %.2f",
			simple.Median, sendfile.Median, off.Median)
	}
	if off.StdDev >= sendfile.StdDev/2 {
		return fmt.Errorf("offloaded stddev %.4f not ≪ host stddev %.4f", off.StdDev, sendfile.StdDev)
	}
	return nil
}
