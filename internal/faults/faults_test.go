package faults

import (
	"reflect"
	"strings"
	"testing"

	"hydra/internal/bus"
	"hydra/internal/device"
	"hydra/internal/hostos"
	"hydra/internal/sim"
)

// world is a minimal Targets implementation over one host.
type world struct {
	eng  *sim.Engine
	devs map[string]*device.Device
}

func (w *world) Device(name string) *device.Device { return w.devs[name] }

func newWorld(seed int64) *world {
	eng := sim.NewEngine(seed)
	host := hostos.New(eng, "h0", hostos.PentiumIV())
	b := bus.New(eng, bus.DefaultConfig())
	w := &world{eng: eng, devs: map[string]*device.Device{}}
	w.devs["nic0"] = device.New(eng, host, b, device.XScaleNIC("nic0"))
	w.devs["nic1"] = device.New(eng, host, b, device.XScaleNIC("nic1"))
	return w
}

func TestArmAppliesScheduleInOrder(t *testing.T) {
	w := newWorld(1)
	in := NewInjector(w.eng)
	sched := Schedule{
		{At: 30 * sim.Millisecond, Kind: DeviceCrash, Device: "nic1"},
		{At: 10 * sim.Millisecond, Kind: DeviceCrash, Device: "nic0", Duration: 20 * sim.Millisecond},
		{At: 50 * sim.Millisecond, Kind: DeviceRestart, Device: "nic1"},
	}
	if err := in.Arm(sched, w); err != nil {
		t.Fatal(err)
	}
	// A crashed device comes back with cleared memory: mark nic0's memory
	// so its restart shows the crash was a power-on reset.
	marker := []byte("lost in a crash")
	addr, err := w.devs["nic0"].AllocMem(len(marker))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.devs["nic0"].WriteMem(addr, marker); err != nil {
		t.Fatal(err)
	}

	w.eng.Run(15 * sim.Millisecond)
	if w.devs["nic0"].Healthy() {
		t.Fatal("crash not applied")
	}
	w.eng.Run(35 * sim.Millisecond)
	if !w.devs["nic0"].Healthy() {
		t.Fatal("bounded crash did not auto-restart")
	}
	got, err := w.devs["nic0"].ReadMem(addr, len(marker))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(marker) || w.devs["nic0"].MemLive() != 0 {
		t.Fatal("nic0 memory survived the crash")
	}
	if w.devs["nic1"].Healthy() {
		t.Fatal("unbounded crash not applied")
	}
	w.eng.Run(45 * sim.Millisecond)
	if w.devs["nic1"].Healthy() {
		t.Fatal("unbounded crash restarted on its own")
	}
	w.eng.RunAll()
	if !w.devs["nic1"].Healthy() {
		t.Fatal("explicit restart not applied")
	}

	log := in.Log()
	applied := make([]string, len(log))
	for i, r := range log {
		applied[i] = r.Kind.String() + " " + r.Target
	}
	// The bounded crash's auto-restart fires at 30 ms, armed before the
	// nic1 crash entry at the same instant, so it fires first.
	want := []string{"device-crash nic0", "device-restart nic0", "device-crash nic1", "device-restart nic1"}
	if !reflect.DeepEqual(applied, want) {
		t.Fatalf("log = %v, want %v", applied, want)
	}
	for i := 1; i < len(log); i++ {
		if log[i].At < log[i-1].At {
			t.Fatalf("log out of order: %v", log)
		}
	}
}

func TestArmValidatesNames(t *testing.T) {
	w := newWorld(1)
	in := NewInjector(w.eng)
	cases := []Entry{
		{Kind: DeviceCrash, Device: "ghost"},
		{Kind: DeviceRestart, Device: "ghost"},
		{Kind: Kind(99), Device: "nic0"},
	}
	for i, e := range cases {
		if err := in.Arm(Schedule{e}, w); err == nil {
			t.Errorf("case %d (%v): invalid entry armed", i, e)
		}
	}
	if err := in.Arm(Schedule{{Kind: DeviceCrash, Device: "ghost"}}, w); err == nil ||
		!strings.Contains(err.Error(), "ghost") {
		t.Fatal("error does not name the unknown target")
	}
}
