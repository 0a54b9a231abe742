package experiments

import (
	"fmt"
	"strings"

	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// X7: descriptor-ring batching and interrupt coalescing under saturation.
// A programmable NIC streams fixed-size messages device→host over a §4.1
// zero-copy channel while the batching policy varies: per-message delivery
// (one bus transaction + one interrupt each), and batched rings that retire
// up to N completions per transaction with a coalescing timeout bounding
// the added latency. The experiment sweeps message rate × batch size ×
// coalescing timeout and reports host CPU cycles per message, delivery
// latency, interrupts, bus transactions, and simulator event volume — the
// classic throughput/latency trade-off of interrupt coalescing, plus the
// wall-clock payoff of fewer simulated events.

// X7Duration is the per-cell simulated time. The cells are rate-driven
// microbenchmarks, so they need far less simulated time than the paper's
// sampled scenarios.
const X7Duration = 2 * sim.Second

// X7MsgBytes is an MTU-sized payload (one Ethernet frame of stream data).
const X7MsgBytes = 1472

// SaturationRow is one (rate, batch, coalesce) cell's outcome.
type SaturationRow struct {
	Scenario string
	RateHz   int
	Batch    int
	Coalesce sim.Time
	// Sent / Delivered count messages; a reliable channel must deliver all.
	Sent      uint64
	Delivered uint64
	// CyclesPerMsg is host CPU cycles spent per delivered message — the
	// host overhead batching exists to amortize.
	CyclesPerMsg float64
	// MeanLatencyMS / MaxLatencyMS summarize send→handler delivery latency.
	MeanLatencyMS float64
	MaxLatencyMS  float64
	// Interrupts / Batches / CoalesceFlushes are the channel's delivery
	// accounting (see channel.Stats).
	Interrupts      uint64
	Batches         uint64
	CoalesceFlushes uint64
	// BusTransactions counts host-bus transactions the cell issued.
	BusTransactions uint64
	// EventsFired is the simulator event count — batched cells should need
	// measurably fewer events for the same message volume.
	EventsFired uint64
}

// SaturationResults holds X7.
type SaturationResults struct {
	Duration sim.Time
	MsgBytes int
	Rows     []SaturationRow
}

// saturationVariants is the rate × policy grid: each rate runs per-message
// delivery next to two batched/coalesced ring configurations.
func saturationVariants() []struct {
	name     string
	rateHz   int
	batch    int
	coalesce sim.Time
} {
	type v = struct {
		name     string
		rateHz   int
		batch    int
		coalesce sim.Time
	}
	var out []v
	for _, rate := range []int{5_000, 50_000} {
		out = append(out,
			v{fmt.Sprintf("per-message @%dk/s", rate/1000), rate, 1, 0},
			v{fmt.Sprintf("batch 8/100µs @%dk/s", rate/1000), rate, 8, 100 * sim.Microsecond},
			v{fmt.Sprintf("batch 32/500µs @%dk/s", rate/1000), rate, 32, 500 * sim.Microsecond},
		)
	}
	return out
}

// RunSaturation executes the X7 grid, fanning the cells out through
// testbed.Sweep (one private engine per cell; results bit-identical to a
// serial loop).
func RunSaturation(seed int64, duration sim.Time) (*SaturationResults, error) {
	variants := saturationVariants()
	rows, err := testbed.Sweep(testbed.SweepConfig{Seeds: sameSeed(seed, len(variants))},
		func(r testbed.Replica) (*SaturationRow, error) {
			v := variants[r.Index]
			row, _, err := RunSaturationCell(r.Seed, duration, v.rateHz, v.batch, v.coalesce, nil)
			if err != nil {
				return nil, err
			}
			row.Scenario = v.name
			return row, nil
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: saturation: %w", err)
	}
	out := &SaturationResults{Duration: duration, MsgBytes: X7MsgBytes}
	for _, row := range rows {
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// RunSaturationCell streams NIC→host at rateHz for duration under one
// batching policy and measures the host-side cost of receiving it
// (cmd/chan-saturate drives single cells directly). When trace is non-nil
// the cell runs with the recorder attached and the Tracer comes back
// alongside the row so callers can export or reconcile the trace.
func RunSaturationCell(seed int64, duration sim.Time, rateHz, batch int, coalesce sim.Time, trace *obs.Config) (*SaturationRow, *obs.Tracer, error) {
	spec := testbed.Spec{
		Name: "x7-saturation",
		Hosts: []testbed.HostSpec{{
			Name:    "host",
			Devices: []device.Config{device.XScaleNIC("nic0")},
		}},
		Channels: []testbed.ChannelSpec{{
			Name: "nic-stream",
			Config: channel.Config{
				Reliable:      true,
				Sync:          channel.SyncSequential,
				ZeroCopyRead:  true,
				ZeroCopyWrite: true,
				RingEntries:   256,
				MaxMessage:    X7MsgBytes,
				Batch:         batch,
				Coalesce:      coalesce,
			},
		}},
		Trace: trace,
	}
	sys, err := testbed.New(seed, spec)
	if err != nil {
		return nil, nil, err
	}
	ch, app, oc, err := sys.OpenChannel("nic-stream", "host", "nic0")
	if err != nil {
		return nil, nil, err
	}
	eng := sys.Eng
	host := sys.Host("host").Machine
	nic := sys.Device("nic0")

	// Delivery is FIFO on a reliable sequential channel, so send timestamps
	// pair with arrivals in order.
	var sentAt []sim.Time
	var latSum, latMax sim.Time
	delivered := 0
	app.InstallCallHandler(func([]byte) {
		lat := eng.Now() - sentAt[delivered]
		delivered++
		latSum += lat
		if lat > latMax {
			latMax = lat
		}
	})

	payload := make([]byte, X7MsgBytes)
	period := sim.Time(int64(sim.Second) / int64(rateHz))
	ticker := nic.PeriodicTimer(period, func() {
		sentAt = append(sentAt, eng.Now())
		if err := oc.Write(payload); err != nil {
			panic(err) // reliable channel: Write cannot fail mid-run
		}
	})
	eng.At(duration, ticker.Stop)
	eng.RunAll()

	st := ch.Stats()
	if uint64(delivered) != st.Sent {
		return nil, nil, fmt.Errorf("experiments: saturation: delivered %d of %d sent", delivered, st.Sent)
	}

	// Event volume comes from the engine's diagnostics snapshot — the one
	// sanctioned read surface — not from poking Engine fields directly.
	reg := obs.NewRegistry()
	obs.CaptureEngine(reg, "engine", eng)
	row := &SaturationRow{
		Scenario:        fmt.Sprintf("rate %d/s batch %d coalesce %v", rateHz, batch, coalesce),
		RateHz:          rateHz,
		Batch:           batch,
		Coalesce:        coalesce,
		Sent:            st.Sent,
		Delivered:       st.Delivered,
		Interrupts:      st.Interrupts,
		Batches:         st.Batches,
		CoalesceFlushes: st.CoalesceFlushes,
		BusTransactions: sys.Host("host").Bus.Total().Transactions,
		EventsFired:     uint64(reg.Snapshot().MustGet("engine.fired")),
	}
	if delivered > 0 {
		hostCycles := host.BusyTime().Float64Seconds() * host.Config().CPUFreqHz
		row.CyclesPerMsg = hostCycles / float64(delivered)
		row.MeanLatencyMS = (latSum / sim.Time(delivered)).Milliseconds()
		row.MaxLatencyMS = latMax.Milliseconds()
	}
	return row, sys.Tracer, nil
}

// CheckSaturationShape asserts the qualitative X7 outcome: everything sent
// is delivered; at the high rate, coalescing cuts host cycles per message
// and interrupts versus per-message delivery while costing latency; and
// batched cells fire fewer simulator events for the same message volume.
func CheckSaturationShape(r *SaturationResults) error {
	byRate := map[int]map[int]SaturationRow{}
	for _, row := range r.Rows {
		if row.Sent == 0 || row.Delivered != row.Sent {
			return fmt.Errorf("experiments: saturation: %s delivered %d of %d",
				row.Scenario, row.Delivered, row.Sent)
		}
		if byRate[row.RateHz] == nil {
			byRate[row.RateHz] = map[int]SaturationRow{}
		}
		byRate[row.RateHz][row.Batch] = row
	}
	for rate, rows := range byRate {
		perMsg, ok1 := rows[1]
		deep, ok32 := rows[32]
		if !ok1 || !ok32 {
			return fmt.Errorf("experiments: saturation: rate %d missing policy rows", rate)
		}
		if perMsg.Interrupts != perMsg.Delivered {
			return fmt.Errorf("experiments: saturation: per-message @%d raised %d interrupts for %d deliveries",
				rate, perMsg.Interrupts, perMsg.Delivered)
		}
		if deep.Interrupts >= perMsg.Interrupts {
			return fmt.Errorf("experiments: saturation: coalescing did not cut interrupts at %d/s (%d vs %d)",
				rate, deep.Interrupts, perMsg.Interrupts)
		}
		if deep.MeanLatencyMS <= perMsg.MeanLatencyMS {
			return fmt.Errorf("experiments: saturation: coalescing latency cost invisible at %d/s (%.4f vs %.4f ms)",
				rate, deep.MeanLatencyMS, perMsg.MeanLatencyMS)
		}
	}
	high := byRate[50_000]
	if high[32].CyclesPerMsg >= 0.85*high[1].CyclesPerMsg {
		return fmt.Errorf("experiments: saturation: batching saved too little at 50k/s: %.0f vs %.0f cycles/msg",
			high[32].CyclesPerMsg, high[1].CyclesPerMsg)
	}
	if high[32].EventsFired >= high[1].EventsFired {
		return fmt.Errorf("experiments: saturation: batching did not cut event volume (%d vs %d)",
			high[32].EventsFired, high[1].EventsFired)
	}
	return nil
}

// Render prints X7 in the evaluation's presentation style.
func (r *SaturationResults) Render() string {
	var b strings.Builder
	b.WriteString("X7 — Channel saturation: batching and interrupt coalescing (§4.1 descriptor rings)\n")
	fmt.Fprintf(&b, "  (NIC→host stream, %d B messages, %v per cell, reliable zero-copy channel)\n",
		r.MsgBytes, r.Duration)
	b.WriteString("  Scenario                 msgs  cycles/msg  lat mean(ms)  lat max(ms)   irqs  batches  coalesced  bus-txns   events\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-22s %6d  %10.0f  %12.4f  %11.4f  %6d  %7d  %9d  %8d  %7d\n",
			row.Scenario, row.Sent, row.CyclesPerMsg, row.MeanLatencyMS, row.MaxLatencyMS,
			row.Interrupts, row.Batches, row.CoalesceFlushes, row.BusTransactions, row.EventsFired)
	}
	b.WriteString("  shape: batching cuts host cycles/msg, interrupts, bus transactions and simulator\n")
	b.WriteString("  events; the coalescing timeout buys that throughput with visible delivery latency.\n")
	return b.String()
}
