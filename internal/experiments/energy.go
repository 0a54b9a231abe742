package experiments

import (
	"fmt"
	"strings"

	"hydra/internal/device"
	"hydra/internal/sim"
	"hydra/internal/tivopc"
)

// X5: the §1.1 power argument — "A Pentium 4 2.8 GHz processor consumes
// 68 W whereas an Intel XScale 600 MHz processor, commonly found in
// peripheral devices, consumes 0.5 W, two orders of magnitude less. By
// offloading suitable operations to low-powered peripherals, we reduce the
// overall system power consumption."
//
// The experiment charges the host CPU at its busy/idle power draw for the
// CPU time each server variant consumes *above idle*, and the NIC's
// embedded core at its ratings, over the same streaming run.

// HostPower is the paper's Pentium 4-class CPU power model.
type HostPower struct {
	BusyWatts float64 // full-tilt draw
	IdleWatts float64 // halted draw
}

// PentiumIVPower matches the paper's 68 W figure (idle ≈ 18 W for the era).
func PentiumIVPower() HostPower {
	return HostPower{BusyWatts: 68, IdleWatts: 18}
}

// EnergyRow is one scenario's marginal streaming energy.
type EnergyRow struct {
	Scenario string
	// HostJoules is the extra host CPU energy vs the idle baseline.
	HostJoules float64
	// DeviceJoules is the extra NIC energy vs its idle draw.
	DeviceJoules float64
}

// EnergyResults holds the X5 comparison.
type EnergyResults struct {
	Duration sim.Time
	Rows     []EnergyRow
}

// RunEnergy measures the marginal energy of each server variant.
func RunEnergy(seed int64, duration sim.Time) (*EnergyResults, error) {
	power := PentiumIVPower()
	out := &EnergyResults{Duration: duration}

	type energyRun struct {
		hostBusyFrac float64
		deviceBusy   sim.Time
	}
	measure := func(kind ServerKind, seed int64) (energyRun, error) {
		tb := tivopc.NewTestbed(seed, duration)
		if _, err := tivopc.StartClient(tb, tivopc.IdleClient); err != nil {
			return energyRun{}, err
		}
		if kind != 0 {
			if _, err := tivopc.StartServer(tb, kind, duration); err != nil {
				return energyRun{}, err
			}
		}
		tb.Eng.Run(duration)
		return energyRun{
			hostBusyFrac: float64(tb.Server.BusyTime()) / float64(duration),
			deviceBusy:   tb.ServerNIC.BusyTime(),
		}, nil
	}

	type spec struct {
		kind ServerKind
		name string
	}
	specs := []spec{
		{0, "Idle"},
		{tivopc.SimpleServer, "Simple Server"},
		{tivopc.SendfileServer, "Sendfile Server"},
		{tivopc.OffloadedServer, "Offloaded Server"},
	}
	runs, err := grid("energy", seed, 0, specs, func(seed int64, s spec) (energyRun, error) {
		return measure(s.kind, seed)
	})
	if err != nil {
		return nil, err
	}

	idleFrac, idleDev := runs[0].hostBusyFrac, runs[0].deviceBusy
	secs := duration.Float64Seconds()
	// The device power ratings come from the topology actually measured:
	// the server NIC declared by the §6.4 spec.
	var nicCfg device.Config
	for _, h := range tivopc.SystemSpec(sim.Second).Hosts {
		for _, d := range h.Devices {
			if d.Name == "server-nic" {
				nicCfg = d
			}
		}
	}
	if nicCfg.Name == "" {
		return nil, fmt.Errorf("experiments: energy: no server-nic in tivopc.SystemSpec")
	}
	for i, spec := range specs[1:] {
		frac, dev := runs[i+1].hostBusyFrac, runs[i+1].deviceBusy
		deltaFrac := frac - idleFrac
		if deltaFrac < 0 {
			deltaFrac = 0
		}
		deltaDev := (dev - idleDev).Float64Seconds()
		if deltaDev < 0 {
			deltaDev = 0
		}
		out.Rows = append(out.Rows, EnergyRow{
			Scenario:     spec.name,
			HostJoules:   deltaFrac * secs * (power.BusyWatts - power.IdleWatts),
			DeviceJoules: deltaDev * (nicCfg.PowerBusyW - nicCfg.PowerIdleW),
		})
	}
	return out, nil
}

// Render prints the energy comparison.
func (r *EnergyResults) Render() string {
	var b strings.Builder
	b.WriteString("X5 — Marginal streaming energy (§1.1 #3: 68 W host vs 0.5 W XScale)\n")
	fmt.Fprintf(&b, "  per %v of streaming, energy above the idle baseline:\n", r.Duration)
	for _, row := range r.Rows {
		total := row.HostJoules + row.DeviceJoules
		fmt.Fprintf(&b, "  %-17s  host %8.3f J + device %8.6f J = %8.3f J\n",
			row.Scenario, row.HostJoules, row.DeviceJoules, total)
	}
	if len(r.Rows) == 3 {
		ratio := (r.Rows[0].HostJoules + r.Rows[0].DeviceJoules) /
			maxFloat(r.Rows[2].HostJoules+r.Rows[2].DeviceJoules, 1e-9)
		fmt.Fprintf(&b, "  offloading cuts marginal streaming energy ≈%.0fx\n", ratio)
	}
	return b.String()
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
