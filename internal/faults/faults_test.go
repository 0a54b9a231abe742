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
	host *hostos.Machine
	b    *bus.Bus
	devs map[string]*device.Device
}

func (w *world) Device(name string) *device.Device { return w.devs[name] }
func (w *world) Bus(host string) *bus.Bus {
	if host == "h0" {
		return w.b
	}
	return nil
}

// busSlowdown probes the bus with one transfer and reports its wire time
// over the nominal one: the active degradation factor.
func (w *world) busSlowdown() float64 {
	took := w.b.Transfer("probe", bus.MainMemory, 1024, nil) - w.eng.Now()
	return float64(took) / float64(w.b.TransferTime(1024))
}

func newWorld(seed int64) *world {
	eng := sim.NewEngine(seed)
	host := hostos.New(eng, "h0", hostos.PentiumIV())
	b := bus.New(eng, bus.DefaultConfig())
	w := &world{eng: eng, host: host, b: b, devs: map[string]*device.Device{}}
	w.devs["nic0"] = device.New(eng, host, b, device.XScaleNIC("nic0"))
	w.devs["nic1"] = device.New(eng, host, b, device.XScaleNIC("nic1"))
	return w
}

func TestArmAppliesScheduleInOrder(t *testing.T) {
	w := newWorld(1)
	in := NewInjector(w.eng)
	sched := Schedule{
		{At: 30 * sim.Millisecond, Kind: BusDegrade, Host: "h0", Factor: 3, Duration: 10 * sim.Millisecond},
		{At: 10 * sim.Millisecond, Kind: DeviceCrash, Device: "nic0", Duration: 20 * sim.Millisecond},
		{At: 20 * sim.Millisecond, Kind: DeviceHang, Device: "nic1"},
		{At: 50 * sim.Millisecond, Kind: DeviceRestart, Device: "nic1"},
		{At: 60 * sim.Millisecond, Kind: BusOutage, Host: "h0", Duration: sim.Millisecond},
	}
	if err := in.Arm(sched, w); err != nil {
		t.Fatal(err)
	}
	// A crash and a hang differ in what survives the restart: a crashed
	// device comes back with cleared memory, a hung one keeps it. Mark
	// both devices' memory so the restarts tell which fault was applied.
	marker := []byte("survives a hang")
	addrs := map[string]uint64{}
	for _, name := range []string{"nic0", "nic1"} {
		d := w.devs[name]
		addr, err := d.AllocMem(len(marker))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteMem(addr, marker); err != nil {
			t.Fatal(err)
		}
		addrs[name] = addr
	}
	memKept := func(name string) bool {
		got, err := w.devs[name].ReadMem(addrs[name], len(marker))
		if err != nil {
			t.Fatal(err)
		}
		return string(got) == string(marker)
	}

	w.eng.Run(15 * sim.Millisecond)
	if w.devs["nic0"].Healthy() {
		t.Fatal("crash not applied")
	}
	w.eng.Run(25 * sim.Millisecond)
	if w.devs["nic1"].Healthy() {
		t.Fatal("hang not applied")
	}
	w.eng.Run(35 * sim.Millisecond)
	if !w.devs["nic0"].Healthy() {
		t.Fatal("bounded crash did not auto-restart")
	}
	if memKept("nic0") || w.devs["nic0"].MemLive() != 0 {
		t.Fatal("nic0 memory survived: a hang was applied for the crash")
	}
	if got := w.busSlowdown(); got != 3 {
		t.Fatalf("slowdown = %v", got)
	}
	w.eng.Run(45 * sim.Millisecond)
	if w.busSlowdown() != 1 {
		t.Fatal("bounded degradation did not restore")
	}
	w.eng.Run(60*sim.Millisecond + sim.Microsecond)
	if !w.devs["nic1"].Healthy() {
		t.Fatal("explicit restart not applied")
	}
	if !memKept("nic1") {
		t.Fatal("nic1 memory cleared: a crash was applied for the hang")
	}
	if w.busSlowdown() <= 1 {
		t.Fatal("outage not applied")
	}
	w.eng.RunAll()

	log := in.Log()
	kinds := make([]Kind, len(log))
	for i, r := range log {
		kinds[i] = r.Kind
	}
	// The bounded crash's auto-restart appears in the log too, at 30 ms —
	// armed before the degradation entry, so it fires first.
	want := []Kind{DeviceCrash, DeviceHang, DeviceRestart, BusDegrade, DeviceRestart, BusOutage}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("log kinds = %v, want %v", kinds, want)
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
		{Kind: BusDegrade, Host: "ghost", Factor: 2},
		{Kind: BusDegrade, Host: "h0", Factor: 0.5},
		{Kind: BusOutage, Host: "h0"},
		{Kind: Kind(99)},
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

func TestRandomCrashScheduleDeterministic(t *testing.T) {
	gen := func(seed int64) Schedule {
		w := newWorld(seed)
		in := NewInjector(w.eng)
		return in.RandomCrashSchedule([]string{"nic0", "nic1"}, 10*sim.Second, 1.0, 200*sim.Millisecond)
	}
	a, b := gen(42), gen(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different schedules")
	}
	c := gen(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a) == 0 {
		t.Fatal("rate 1/s over 10 s produced no faults")
	}
	for i, e := range a {
		if e.At < 0 || e.At >= 10*sim.Second {
			t.Fatalf("entry %d outside [0, duration): %v", i, e)
		}
		if e.Kind != DeviceCrash || e.Duration != 200*sim.Millisecond {
			t.Fatalf("entry %d malformed: %v", i, e)
		}
		if i > 0 && e.At < a[i-1].At {
			t.Fatalf("schedule not time-ordered at %d", i)
		}
	}
	if s := NewInjector(newWorld(1).eng).RandomCrashSchedule(nil, sim.Second, 1, 0); s != nil {
		t.Fatal("nil device list should yield a nil schedule")
	}
}

func TestInjectorStreamIsolated(t *testing.T) {
	// The injector draws from its own NewRand stream: another model
	// drawing from its stream first must not change the schedule.
	schedule := func(otherDraws bool) Schedule {
		eng := sim.NewEngine(7)
		if otherDraws {
			eng.NewRand(1).Int63()
		}
		return NewInjector(eng).RandomCrashSchedule([]string{"nic0"}, 10*sim.Second, 1, sim.Second)
	}
	if a, b := schedule(true), schedule(false); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("another model's draws perturbed the injector's stream: %v vs %v", a, b)
	}
}
