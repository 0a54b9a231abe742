package testbed

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/faults"
	"hydra/internal/guid"
	"hydra/internal/netsim"
	"hydra/internal/nfs"
	"hydra/internal/objfile"
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
	if alpha.IdleLoad == nil {
		t.Fatal("alpha idle load not started")
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
		{At: 20 * sim.Millisecond, Kind: faults.BusDegrade, Host: "beta", Factor: 2},
	}
	sys, err := New(5, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Injector == nil {
		t.Fatal("no injector for a Spec with faults")
	}
	if sys.Host("alpha").Monitor == nil {
		t.Fatal("no monitor for a HostSpec with Monitor")
	}
	sys.Eng.Run(30 * sim.Millisecond)
	if sys.Device("alpha-nic").Healthy() {
		t.Fatal("scheduled crash not applied")
	}
	if sys.Bus("beta").Slowdown() != 2 {
		t.Fatalf("beta bus slowdown = %v", sys.Bus("beta").Slowdown())
	}
	if len(sys.Injector.Log()) != 2 {
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
	spec.Faults = faults.Schedule{{Kind: faults.BusOutage, Host: "ghost", Duration: sim.Millisecond}}
	if _, err := New(1, spec); err == nil {
		t.Fatal("unknown host armed")
	}
}

// hotWorker is a versioned channel-served behaviour whose delivery count
// rides checkpoints across hot-swaps.
type hotWorker struct {
	version int
	count   int
	ep      *channel.Endpoint
}

func (w *hotWorker) Initialize(*core.Context) error { return nil }
func (w *hotWorker) Start() error                   { return nil }
func (w *hotWorker) Stop() error                    { return nil }
func (w *hotWorker) ChannelConnected(ep *channel.Endpoint) {
	w.ep = ep
	ep.InstallCallHandler(func([]byte) { w.count++ })
}
func (w *hotWorker) Checkpoint() []byte { return []byte{byte(w.count)} }
func (w *hotWorker) Restore(b []byte) error {
	if len(b) > 0 {
		w.count = int(b[0])
	}
	return nil
}

// stockHot registers one hotWorker version on a built host's depot.
func stockHot(t *testing.T, hs *HostSystem, path string, g uint64, version int, made *[]*hotWorker) {
	t.Helper()
	doc := fmt.Sprintf(`<offcode>
  <package><bindname>svc.Hot</bindname><GUID>%d</GUID></package>
  <targets>
    <device-class><name>Network Device</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`, g)
	hs.Depot.PutFile(path, []byte(doc))
	obj := objfile.Synthesize("svc.Hot", guid.GUID(g), 512, []string{"hydra.Heap.Alloc", "hydra.Channel.Write"})
	if err := hs.Depot.RegisterObject(obj); err != nil {
		t.Fatal(err)
	}
	if err := hs.Depot.RegisterFactory(guid.GUID(g), func() any {
		w := &hotWorker{version: version}
		*made = append(*made, w)
		return w
	}); err != nil {
		t.Fatal(err)
	}
}

// A Spec.Mutations schedule hot-swaps a live Offcode at its virtual time:
// the replacement inherits the checkpointed count, keeps serving, and the
// outcome lands on System.MutationOutcomes.
func TestBuildArmsMutationSchedule(t *testing.T) {
	sys, err := New(11, Spec{
		Hosts: []HostSpec{{
			Name:    "m0",
			Devices: []device.Config{device.XScaleNIC("m0-nic")},
			Runtime: &core.Config{},
		}},
		Mutations: []MutationSpec{{
			Host: "m0", At: 50 * sim.Millisecond, Bind: "svc.Hot", Path: "/hot/v2.odf",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := sys.Host("m0")
	var made []*hotWorker
	stockHot(t, hs, "/hot/v1.odf", 7001, 1, &made)
	stockHot(t, hs, "/hot/v2.odf", 7002, 2, &made)

	var h *core.Handle
	plan := hs.Runtime.DefaultApp().Plan()
	if err := plan.AddRoot("/hot/v1.odf"); err != nil {
		t.Fatal(err)
	}
	plan.Commit(func(dep *core.Deployment, err error) {
		if err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		h = dep.Handles["svc.Hot"]
	})
	sys.Eng.Run(10 * sim.Millisecond)
	if h == nil {
		t.Fatal("v1 not deployed before the mutation epoch")
	}
	appEnd, _, err := hs.Runtime.CreateChannel(channel.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appEnd.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Eng.RunAll() // delivers the writes, then fires the 50 ms swap

	outs := sys.MutationOutcomes()
	if len(outs) != 1 {
		t.Fatalf("outcomes = %d, want 1", len(outs))
	}
	out := outs[0]
	if out.Err != nil {
		t.Fatalf("mutation failed: %v", out.Err)
	}
	if out.Spec.Bind != "svc.Hot" || out.Result == nil || out.Result.Swapped["svc.Hot"] == nil {
		t.Fatalf("outcome = %+v", out)
	}
	if len(made) != 2 || made[1].version != 2 {
		t.Fatalf("instances = %d, want v2 spawned", len(made))
	}
	if made[1].count != 3 {
		t.Fatalf("v2 count = %d, want checkpointed 3", made[1].count)
	}
	// The swapped-in instance keeps serving on the surviving endpoint.
	if err := appEnd.Write([]byte{9}); err != nil {
		t.Fatal(err)
	}
	sys.Eng.RunAll()
	if made[1].count != 4 {
		t.Fatalf("post-swap count = %d, want 4", made[1].count)
	}
}

func TestBuildRejectsBadMutations(t *testing.T) {
	base := func() Spec {
		return Spec{Hosts: []HostSpec{
			{Name: "r", Devices: []device.Config{device.XScaleNIC("r-nic")}, Runtime: &core.Config{}},
			{Name: "bare"},
		}}
	}
	cases := []struct {
		name string
		mut  MutationSpec
		want string
	}{
		{"unknown host", MutationSpec{Host: "ghost", Bind: "b", Path: "/p"}, "unknown host"},
		{"no runtime", MutationSpec{Host: "bare", Bind: "b", Path: "/p"}, "no runtime"},
		{"unknown app", MutationSpec{Host: "r", App: "ghost", Bind: "b", Path: "/p"}, "no app"},
		{"missing bind", MutationSpec{Host: "r", Path: "/p"}, "Bind and Path"},
	}
	for _, c := range cases {
		spec := base()
		spec.Mutations = []MutationSpec{c.mut}
		if _, err := New(1, spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
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
	cfg, ok := sys.ChannelConfig("stream")
	if !ok || cfg.Batch != 16 || cfg.RingEntries != 128 {
		t.Fatalf("profile lookup: ok=%v cfg=%+v", ok, cfg)
	}
	def, ok := sys.ChannelConfig("oob")
	if !ok || def.RingEntries != channel.DefaultConfig().RingEntries ||
		def.MaxMessage != channel.DefaultConfig().MaxMessage {
		t.Fatalf("defaults not filled: %+v", def)
	}
	if _, ok := sys.ChannelConfig("nope"); ok {
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
	if svc == nil || svc.Config().MemoryQuota != 1<<20 {
		t.Fatalf("svc session = %+v", svc)
	}
	if h.App("bg") == nil {
		t.Fatal("bg session missing")
	}
	if h.App("ghost") != nil {
		t.Fatal("unknown session resolved")
	}
	if got := h.Runtime.ReservedDeviceMemory(); got != 256<<10 {
		t.Fatalf("reserved device memory = %d", got)
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
