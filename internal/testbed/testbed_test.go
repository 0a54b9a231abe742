package testbed

import (
	"errors"
	"strings"
	"testing"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/faults"
	"hydra/internal/netsim"
	"hydra/internal/nfs"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

func twoHostSpec() Spec {
	return Spec{
		Name: "test-fabric",
		Net:  &NetSpec{Config: netsim.GigabitSwitched()},
		NAS: []NASSpec{{
			Station: "nas",
			Files:   []FileSpec{{Path: "/f", Data: []byte("hello")}},
		}},
		Hosts: []HostSpec{
			{
				Name:     "alpha",
				Devices:  []device.Config{device.XScaleNIC("alpha-nic")},
				Stations: []string{"alpha"},
				Runtime:  &core.Config{},
				IdleLoad: DefaultIdleLoad(),
			},
			{
				Name: "beta",
				Devices: []device.Config{
					device.XScaleNIC("beta-nic"),
					device.GPU("beta-gpu"),
					device.SmartDisk("beta-disk"),
				},
				Stations: []string{"beta", "beta-disk"},
			},
		},
	}
}

func TestBuildTopology(t *testing.T) {
	sys, err := New(1, twoHostSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Net == nil {
		t.Fatal("no network built")
	}
	if got := len(sys.Hosts()); got != 2 {
		t.Fatalf("hosts = %d, want 2", got)
	}

	alpha := sys.Host("alpha")
	if alpha == nil || alpha.Machine == nil || alpha.Bus == nil {
		t.Fatal("alpha host incomplete")
	}
	if alpha.Runtime == nil || alpha.Depot == nil {
		t.Fatal("alpha declared a runtime but got none")
	}
	if alpha.Machine.Config().CPUFreqHz != 2.4e9 {
		t.Fatalf("zero CPU config did not default to PentiumIV: %v", alpha.Machine.Config().CPUFreqHz)
	}

	beta := sys.Host("beta")
	if beta.Runtime != nil || beta.Depot != nil {
		t.Fatal("beta declared no runtime but got one")
	}
	if len(beta.Devices) != 3 {
		t.Fatalf("beta devices = %d, want 3", len(beta.Devices))
	}
	if d := sys.Device("beta-gpu"); d == nil || d.Config().Class.Name != "Display Device" {
		t.Fatal("beta-gpu missing or misclassified")
	}
	if beta.Device("beta-disk") == nil || beta.Device("nope") != nil {
		t.Fatal("HostSystem.Device lookup broken")
	}

	for _, name := range []string{"nas", "alpha", "beta", "beta-disk"} {
		if sys.Station(name) == nil {
			t.Fatalf("station %q missing", name)
		}
	}
	nas := sys.NAS("nas")
	if nas == nil || nas.Server == nil {
		t.Fatal("NAS not built")
	}
	if data, ok := nas.Store.Get("/f"); !ok || string(data) != "hello" {
		t.Fatal("NAS file not loaded")
	}
	if !strings.Contains(sys.String(), "test-fabric") {
		t.Fatalf("String() = %q", sys.String())
	}
	// Only alpha declared an idle load: its daemons keep its CPU busy
	// while beta's stays idle.
	sys.Eng.Run(sim.Second)
	if alpha.Machine.BusyTime() == 0 {
		t.Fatal("alpha idle load not started")
	}
	if got := beta.Machine.BusyTime(); got != 0 {
		t.Fatalf("beta, with no idle load, was busy %v", got)
	}
}

// The NAS must actually serve: an NFS client on a host station reads the
// file end to end through the simulated network.
func TestBuiltNASServes(t *testing.T) {
	sys, err := New(7, twoHostSpec())
	if err != nil {
		t.Fatal(err)
	}
	cli := nfs.NewClient(sys.Eng, sys.Station("alpha"), "nas", 9000, 0)
	var got []byte
	cli.Lookup("/f", func(h uint64, err error) {
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		cli.Read(h, 0, 64, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = data
		})
	})
	// Bounded run: the idle-load daemons reschedule forever, so RunAll
	// would never drain.
	sys.Eng.Run(sim.Second)
	if string(got) != "hello" {
		t.Fatalf("read %q through the fabric, want %q", got, "hello")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no net", Spec{Stations: []string{"s"}}, "no Net"},
		{"unnamed host", Spec{Hosts: []HostSpec{{}}}, "unnamed host"},
		{"dup host", Spec{Hosts: []HostSpec{{Name: "h"}, {Name: "h"}}}, "duplicate host"},
		{"dup device", Spec{Hosts: []HostSpec{{
			Name:    "h",
			Devices: []device.Config{device.XScaleNIC("d"), device.XScaleNIC("d")},
		}}}, "duplicate device"},
		{"dup station", Spec{
			Net:      &NetSpec{Config: netsim.GigabitSwitched()},
			Stations: []string{"s", "s"},
		}, "duplicate station"},
	}
	for _, c := range cases {
		if _, err := New(1, c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// miniScenario is a deterministic seed-dependent workload: an idle-loaded
// host run for simulated time, reporting its busy cycles.
func miniScenario(seed int64) (sim.Time, error) {
	sys, err := New(seed, Spec{
		Hosts: []HostSpec{{
			Name:     "h",
			Devices:  []device.Config{device.XScaleNIC("nic")},
			IdleLoad: DefaultIdleLoad(),
		}},
	})
	if err != nil {
		return 0, err
	}
	sys.Eng.Run(2 * sim.Second)
	return sys.Host("h").Machine.BusyTime(), nil
}

func TestSweepMatchesSerial(t *testing.T) {
	cfg := SweepConfig{Seeds: []int64{100, 101, 102, 103, 104, 105, 106, 107}, Workers: 4}

	serial := make([]sim.Time, 0, len(cfg.Seeds))
	for _, seed := range cfg.Seeds {
		bt, err := miniScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, bt)
	}

	swept, err := Sweep(cfg, func(r Replica) (sim.Time, error) {
		return miniScenario(r.Seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if swept[i] != serial[i] {
			t.Fatalf("replica %d: sweep %v != serial %v", i, swept[i], serial[i])
		}
	}
	// Seeds must actually differentiate the replicas.
	distinct := map[sim.Time]bool{}
	for _, bt := range swept {
		distinct[bt] = true
	}
	if len(distinct) < 2 {
		t.Fatal("all replicas identical; seeds not wired through")
	}
}

// Replica i runs with Seeds[i], in replica order.
func TestSweepSeedList(t *testing.T) {
	got, err := Sweep(SweepConfig{Seeds: []int64{42, 7, 42}, Workers: 2}, func(r Replica) (int64, error) {
		return r.Seed, nil
	})
	if err != nil || len(got) != 3 || got[0] != 42 || got[1] != 7 || got[2] != 42 {
		t.Fatalf("replica seeds = %v, %v", got, err)
	}
}

func TestSweepErrorAndPanic(t *testing.T) {
	boom := errors.New("boom")
	_, err := Sweep(SweepConfig{Seeds: make([]int64, 4), Workers: 2}, func(r Replica) (int, error) {
		if r.Index == 2 {
			return 0, boom
		}
		return r.Index, nil
	})
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "replica 2") {
		t.Fatalf("err = %v", err)
	}

	// A replica panic surfaces as an error on both the parallel and the
	// serial path — sweeps must fail identically regardless of workers.
	for _, workers := range []int{3, 1} {
		_, err = Sweep(SweepConfig{Seeds: make([]int64, 3), Workers: workers}, func(r Replica) (int, error) {
			if r.Index == 1 {
				panic("kaboom")
			}
			return r.Index, nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "replica 1") {
			t.Fatalf("workers=%d: panic not surfaced: %v", workers, err)
		}
	}
}

func TestSweepEmptyAndSerialPath(t *testing.T) {
	out, err := Sweep(SweepConfig{}, func(Replica) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v %v", out, err)
	}
	out, err = Sweep(SweepConfig{Seeds: make([]int64, 3), Workers: 1}, func(r Replica) (int, error) {
		return r.Index * 10, nil
	})
	if err != nil || len(out) != 3 || out[2] != 20 {
		t.Fatalf("serial sweep: %v %v", out, err)
	}
}

func TestMergeSamples(t *testing.T) {
	merged := MergeSamples([][]float64{{1, 2}, nil, {3}})
	if len(merged) != 3 || merged[0] != 1 || merged[2] != 3 {
		t.Fatalf("merged = %v", merged)
	}
	sum := SummarizeMerged([][]float64{{1, 2}, {3, 4}})
	if sum.N != 4 || sum.Mean != 2.5 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestBuildArmsFaultSchedule(t *testing.T) {
	spec := twoHostSpec()
	spec.Hosts[0].Monitor = &core.MonitorConfig{Heartbeat: 5 * sim.Millisecond}
	spec.Faults = faults.Schedule{
		{At: 10 * sim.Millisecond, Kind: faults.DeviceCrash, Device: "alpha-nic"},
		{At: 20 * sim.Millisecond, Kind: faults.DeviceCrash, Device: "beta-nic", Duration: 5 * sim.Millisecond},
	}
	sys, err := New(5, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Injector == nil {
		t.Fatal("no injector for a Spec with faults")
	}
	// A started monitor registers its heartbeat pseudo Offcode per device.
	if _, err := sys.Host("alpha").Runtime.GetOffcode("hydra.Health.alpha-nic"); err != nil {
		t.Fatalf("no monitor for a HostSpec with Monitor: %v", err)
	}
	sys.Eng.Run(30 * sim.Millisecond)
	if sys.Device("alpha-nic").Healthy() {
		t.Fatal("scheduled crash not applied")
	}
	// The bounded crash restarted beta-nic on its own.
	if !sys.Device("beta-nic").Healthy() {
		t.Fatal("bounded crash did not auto-restart")
	}
	if len(sys.Injector.Log()) != 3 {
		t.Fatalf("injector log = %v", sys.Injector.Log())
	}
}

func TestBuildRejectsBadFaultTargets(t *testing.T) {
	spec := twoHostSpec()
	spec.Faults = faults.Schedule{{Kind: faults.DeviceCrash, Device: "ghost-nic"}}
	if _, err := New(1, spec); err == nil || !strings.Contains(err.Error(), "ghost-nic") {
		t.Fatalf("err = %v, want unknown device", err)
	}
	spec = twoHostSpec()
	spec.Faults = faults.Schedule{{Kind: faults.DeviceRestart, Device: "ghost-disk"}}
	if _, err := New(1, spec); err == nil || !strings.Contains(err.Error(), "ghost-disk") {
		t.Fatalf("err = %v, want unknown device", err)
	}
}

func TestBuildRejectsMonitorWithoutRuntime(t *testing.T) {
	spec := twoHostSpec()
	spec.Hosts[1].Runtime = nil
	spec.Hosts[1].Monitor = &core.MonitorConfig{}
	if _, err := New(1, spec); err == nil || !strings.Contains(err.Error(), "Monitor") {
		t.Fatalf("err = %v, want monitor-without-runtime error", err)
	}
}

func TestChannelProfiles(t *testing.T) {
	spec := Spec{
		Name: "chan-profiles",
		Hosts: []HostSpec{
			{Name: "h0", Devices: []device.Config{device.XScaleNIC("nic0")}},
			{Name: "h1", Devices: []device.Config{device.XScaleNIC("nic1")}},
		},
		Channels: []ChannelSpec{
			{Name: "stream", Config: channel.Config{
				Reliable: true, ZeroCopyRead: true, ZeroCopyWrite: true,
				RingEntries: 128, MaxMessage: 2048,
				Batch: 16, Coalesce: 100 * sim.Microsecond,
			}},
			{Name: "oob"}, // zero config: defaults fill ring and message size
		},
	}
	sys, err := New(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, ok := sys.channels["stream"]
	if !ok || cfg.Batch != 16 || cfg.RingEntries != 128 {
		t.Fatalf("profile lookup: ok=%v cfg=%+v", ok, cfg)
	}
	def, ok := sys.channels["oob"]
	if !ok || def.RingEntries != channel.DefaultConfig().RingEntries ||
		def.MaxMessage != channel.DefaultConfig().MaxMessage {
		t.Fatalf("defaults not filled: %+v", def)
	}
	if _, ok := sys.channels["nope"]; ok {
		t.Fatal("unknown profile resolved")
	}

	ch, app, oc, err := sys.OpenChannel("stream", "h0", "nic0")
	if err != nil {
		t.Fatal(err)
	}
	if ch.Config().Batch != 16 {
		t.Fatalf("opened channel config = %+v", ch.Config())
	}
	var got []byte
	oc.InstallCallHandler(func(d []byte) { got = d })
	if err := app.Write([]byte("profiled")); err != nil {
		t.Fatal(err)
	}
	sys.Eng.RunAll()
	if string(got) != "profiled" {
		t.Fatalf("delivery through profiled channel: %q", got)
	}

	for _, bad := range [][3]string{
		{"nope", "h0", "nic0"},
		{"stream", "nope", "nic0"},
		{"stream", "h0", "nope"},
		// A device on another host must be rejected, not silently wired
		// onto the wrong bus.
		{"stream", "h0", "nic1"},
	} {
		if _, _, _, err := sys.OpenChannel(bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("OpenChannel(%v) accepted bad names", bad)
		}
	}
}

func TestBuildRejectsBadChannelProfiles(t *testing.T) {
	if _, err := New(1, Spec{Channels: []ChannelSpec{{Name: ""}}}); err == nil {
		t.Fatal("unnamed channel profile accepted")
	}
	if _, err := New(1, Spec{Channels: []ChannelSpec{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate channel profile accepted")
	}
}

func TestBuildOpensDeclaredApps(t *testing.T) {
	sys, err := New(5, Spec{
		Hosts: []HostSpec{{
			Name:    "h",
			Devices: []device.Config{device.XScaleNIC("n0")},
			Runtime: &core.Config{},
			Apps: []AppSpec{
				{Name: "svc", Config: core.AppConfig{MemoryQuota: 1 << 20, DeviceMemory: 256 << 10}},
				{Name: "bg"},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Host("h")
	if len(h.Apps) != 2 {
		t.Fatalf("apps = %d", len(h.Apps))
	}
	svc := h.App("svc")
	if svc == nil {
		t.Fatal("svc session missing")
	}
	if h.App("bg") == nil {
		t.Fatal("bg session missing")
	}
	if h.App("ghost") != nil {
		t.Fatal("unknown session resolved")
	}
	// The spec's MemoryQuota reaches the session: pinning one byte past it
	// fails with a quota error, pinning exactly it succeeds.
	var qe *resource.QuotaError
	if _, _, err := svc.PinMemory(1<<20 + 1); !errors.As(err, &qe) {
		t.Fatalf("pin past quota err = %v, want *resource.QuotaError", err)
	}
	if _, pin, err := svc.PinMemory(1 << 20); err != nil {
		t.Fatalf("pin at quota: %v", err)
	} else if err := pin.Close(); err != nil {
		t.Fatal(err)
	}
	// The spec's DeviceMemory is reserved: while svc's 256 KiB is
	// outstanding, a session asking for all but 128 KiB of the free device
	// memory is refused, and one asking for all but 256 KiB is admitted.
	free := h.Runtime.FreeDeviceMemory()
	if _, err := h.Runtime.OpenApp("probe", core.AppConfig{DeviceMemory: free - 128<<10}); !errors.Is(err, core.ErrAdmission) {
		t.Fatalf("over-reserving probe err = %v, want ErrAdmission", err)
	}
	if _, err := h.Runtime.OpenApp("probe", core.AppConfig{DeviceMemory: free - 256<<10}); err != nil {
		t.Fatalf("probe within the unreserved memory: %v", err)
	}

	// Validation: sessions need a runtime; names must be present and unique.
	if _, err := New(5, Spec{Hosts: []HostSpec{{Name: "h", Apps: []AppSpec{{Name: "x"}}}}}); err == nil {
		t.Fatal("apps without runtime accepted")
	}
	if _, err := New(5, Spec{Hosts: []HostSpec{{
		Name: "h", Runtime: &core.Config{}, Apps: []AppSpec{{Name: ""}},
	}}}); err == nil {
		t.Fatal("unnamed app accepted")
	}
	if _, err := New(5, Spec{Hosts: []HostSpec{{
		Name: "h", Runtime: &core.Config{}, Apps: []AppSpec{{Name: "x"}, {Name: "x"}},
	}}}); !errors.Is(err, core.ErrAppExists) {
		t.Fatalf("duplicate app err = %v", err)
	}
}
