// Package faults is the deterministic fault injector: it replays declarative
// crash-only fault schedules — device crashes and restarts — against a
// running simulation, driven entirely by the engine's virtual clock.
//
// The determinism contract extends to failures: a fixed seed plus a fixed
// schedule produces a bit-identical run, including every fault, every
// detection and every recovery.
//
// The injector only throws the switches; reacting to them is the runtime's
// job (see internal/core's health monitor and Offcode migration).
package faults

import (
	"fmt"
	"sort"

	"hydra/internal/device"
	"hydra/internal/sim"
)

// Kind is a fault type.
type Kind int

// Fault kinds.
const (
	// DeviceCrash kills a device; local memory is lost. With a Duration,
	// the device restarts (power-on reset) that long after the crash.
	DeviceCrash Kind = iota
	// DeviceRestart restores a previously crashed device.
	DeviceRestart
)

func (k Kind) String() string {
	switch k {
	case DeviceCrash:
		return "device-crash"
	case DeviceRestart:
		return "device-restart"
	}
	return "invalid"
}

// Entry is one declarative fault against a named device.
type Entry struct {
	// At is the virtual time the fault strikes.
	At sim.Time
	// Kind selects the fault.
	Kind Kind
	// Device names the target device.
	Device string
	// Duration bounds a DeviceCrash: the device restarts that long after
	// the crash. Zero means it stays down until a later DeviceRestart.
	Duration sim.Time
}

func (e Entry) String() string {
	return fmt.Sprintf("%v@%v(%s)", e.Kind, e.At, e.Device)
}

// Schedule is a replayable fault script. Entries may be listed in any
// order; Arm applies them in (At, declaration-index) order.
type Schedule []Entry

// Targets resolves the device names a Schedule uses to live devices.
// testbed.System satisfies it.
type Targets interface {
	// Device returns the named device, or nil.
	Device(name string) *device.Device
}

// Record is one fault the injector actually applied.
type Record struct {
	At     sim.Time
	Kind   Kind
	Target string
}

// Injector replays fault schedules on an engine.
type Injector struct {
	eng *sim.Engine
	log []Record
}

// NewInjector creates an injector on eng.
func NewInjector(eng *sim.Engine) *Injector {
	return &Injector{eng: eng}
}

// Arm validates the schedule against targets and schedules every entry
// (plus the implied restores for bounded faults). Validation is eager so a
// typo in a device name fails at build time, not mid-run.
func (in *Injector) Arm(sched Schedule, t Targets) error {
	ordered := make([]Entry, len(sched))
	copy(ordered, sched)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, e := range ordered {
		if err := in.armEntry(e, t); err != nil {
			return err
		}
	}
	return nil
}

func (in *Injector) armEntry(e Entry, t Targets) error {
	if e.Kind != DeviceCrash && e.Kind != DeviceRestart {
		return fmt.Errorf("faults: unknown kind %d", e.Kind)
	}
	d := t.Device(e.Device)
	if d == nil {
		return fmt.Errorf("faults: %v targets unknown device %q", e.Kind, e.Device)
	}
	if e.Kind == DeviceRestart {
		in.RestartDevice(e.At, d)
		return nil
	}
	in.CrashDevice(e.At, d)
	if e.Duration > 0 {
		in.RestartDevice(e.At+e.Duration, d)
	}
	return nil
}

// at schedules fn at absolute virtual time t (clamped to now).
func (in *Injector) at(t sim.Time, fn func()) {
	in.eng.At(t, fn)
}

func (in *Injector) record(k Kind, target string) {
	in.log = append(in.log, Record{At: in.eng.Now(), Kind: k, Target: target})
}

// CrashDevice kills d at virtual time at.
func (in *Injector) CrashDevice(at sim.Time, d *device.Device) {
	in.at(at, func() {
		in.record(DeviceCrash, d.Name())
		d.Crash()
	})
}

// RestartDevice restores d at virtual time at.
func (in *Injector) RestartDevice(at sim.Time, d *device.Device) {
	in.at(at, func() {
		in.record(DeviceRestart, d.Name())
		d.Restore()
	})
}

// Log returns the faults applied so far, in application order.
func (in *Injector) Log() []Record {
	return append([]Record(nil), in.log...)
}
