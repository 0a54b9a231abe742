package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hydra/internal/bus"
	"hydra/internal/channel"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/hostos"
	"hydra/internal/objfile"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

// fakeOffcode records lifecycle transitions.
type fakeOffcode struct {
	name    string
	log     *[]string
	ctx     *Context
	initErr error
	chans   []*channel.Endpoint
}

func (f *fakeOffcode) Initialize(ctx *Context) error {
	f.ctx = ctx
	*f.log = append(*f.log, "init:"+f.name)
	return f.initErr
}
func (f *fakeOffcode) Start() error {
	*f.log = append(*f.log, "start:"+f.name)
	return nil
}
func (f *fakeOffcode) Stop() error {
	*f.log = append(*f.log, "stop:"+f.name)
	return nil
}
func (f *fakeOffcode) ChannelConnected(ep *channel.Endpoint) {
	f.chans = append(f.chans, ep)
}

type rig struct {
	eng   *sim.Engine
	host  *hostos.Machine
	bus   *bus.Bus
	nic   *device.Device
	disk  *device.Device
	depot *depot.Depot
	rt    *Runtime
	log   []string
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{}
	r.eng = sim.NewEngine(31)
	r.host = hostos.New(r.eng, "host", hostos.PentiumIV())
	r.bus = bus.New(r.eng, bus.DefaultConfig())
	r.nic = device.New(r.eng, r.host, r.bus, device.XScaleNIC("nic0"))
	r.disk = device.New(r.eng, r.host, r.bus, device.Config{
		Name:      "disk0",
		Class:     device.Class{ID: 2, Name: "Storage Device", Bus: "pci"},
		CPUFreqHz: 400e6, LocalMemBytes: 1 << 20,
	})
	r.depot = depot.New()
	r.rt = New(r.eng, r.host, r.bus, r.depot, cfg)
	r.rt.RegisterDevice(r.nic)
	r.rt.RegisterDevice(r.disk)
	return r
}

// stock registers an Offcode (ODF+object+factory) in the depot.
func (r *rig) stock(t *testing.T, bind string, g uint64, targetClass string, imports string) {
	t.Helper()
	odfDoc := fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <sw-env>%s</sw-env>
  <targets>
    <device-class><name>%s</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`, bind, g, imports, targetClass)
	r.depot.PutFile("/offcodes/"+bind+".odf", []byte(odfDoc))
	obj := objfile.Synthesize(bind, guid.GUID(g), 512, []string{"hydra.Heap.Alloc", "hydra.Channel.Write"})
	if err := r.depot.RegisterObject(obj); err != nil {
		t.Fatal(err)
	}
	name := bind
	if err := r.depot.RegisterFactory(guid.GUID(g), func() any {
		return &fakeOffcode{name: name, log: &r.log}
	}); err != nil {
		t.Fatal(err)
	}
}

func importRef(bind string, g uint64, typ string) string {
	return fmt.Sprintf(`<import><file>/offcodes/%s.odf</file><bindname>%s</bindname>
		<reference type="%s"><GUID>%d</GUID></reference></import>`, bind, bind, typ, g)
}

// planDeploy commits a single-root plan under the runtime's default
// session, delivering the root handle — the plan-based shape of the
// removed legacy Deploy shim.
func planDeploy(rt *Runtime, path string, k func(*Handle, error)) {
	plan := rt.DefaultApp().Plan()
	if err := plan.AddRoot(path); err != nil {
		k(nil, err)
		return
	}
	bind := plan.roots[0].bind
	plan.Commit(func(dep *Deployment, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		k(dep.Handles[bind], nil)
	})
}

func deploy(t *testing.T, r *rig, path string) *Handle {
	t.Helper()
	var h *Handle
	var derr error
	done := false
	planDeploy(r.rt, path, func(handle *Handle, err error) { h, derr, done = handle, err, true })
	r.eng.RunAll()
	if !done {
		t.Fatal("deployment never completed")
	}
	if derr != nil {
		t.Fatal(derr)
	}
	return h
}

func TestDeploySingleOffcode(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	h := deploy(t, r, "/offcodes/net.Checksum.odf")
	if h.state != StateStarted {
		t.Fatalf("state = %v", h.state)
	}
	if h.Device() != r.nic {
		t.Fatalf("placed on %v, want nic0", h.Device())
	}
	if h.ImageSize() == 0 {
		t.Fatal("no image placed")
	}
	// Image bytes actually landed in device memory, relocations patched.
	img, err := r.nic.ReadMem(h.ImageAddr(), h.ImageSize())
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 512 {
		t.Fatalf("image size %d", len(img))
	}
	exports := r.nic.Exports()
	// First import slot holds hydra.Heap.Alloc's address.
	var got uint64
	for i := 0; i < 8; i++ {
		got |= uint64(img[8+i]) << (8 * i)
	}
	if got != exports["hydra.Heap.Alloc"] {
		t.Fatalf("reloc = %#x, want %#x", got, exports["hydra.Heap.Alloc"])
	}
	if len(r.log) != 2 || r.log[0] != "init:net.Checksum" || r.log[1] != "start:net.Checksum" {
		t.Fatalf("lifecycle = %v", r.log)
	}
}

func TestDeployClosureOrderAndPlacement(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stock(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))
	h := deploy(t, r, "/offcodes/net.Socket.odf")
	if h.BindName != "net.Socket" {
		t.Fatalf("root handle = %s", h.BindName)
	}
	// Import initialized before importer; all inits before any start.
	want := []string{"init:net.Checksum", "init:net.Socket", "start:net.Checksum", "start:net.Socket"}
	if len(r.log) != 4 {
		t.Fatalf("lifecycle = %v", r.log)
	}
	for i := range want {
		if r.log[i] != want[i] {
			t.Fatalf("lifecycle = %v, want %v", r.log, want)
		}
	}
	// Pull constraint: both on the same device.
	peer, err := r.rt.GetOffcode("net.Checksum")
	if err != nil {
		t.Fatal(err)
	}
	if peer.Device() != h.Device() {
		t.Fatal("Pull pair split across devices")
	}
}

func TestDeployReuse(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	h1 := deploy(t, r, "/offcodes/net.Checksum.odf")
	h2 := deploy(t, r, "/offcodes/net.Checksum.odf")
	if h1 != h2 {
		t.Fatal("redeployment created a second instance")
	}
	// Lifecycle ran once.
	if len(r.log) != 2 {
		t.Fatalf("lifecycle = %v", r.log)
	}
}

func TestDeployPartialReusePinsPull(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	deploy(t, r, "/offcodes/net.Checksum.odf") // lands on nic0
	// Now deploy a socket that Pulls the already-running checksum; it must
	// land on the same device even though it could also fit disk-class.
	r.stock(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))
	h := deploy(t, r, "/offcodes/net.Socket.odf")
	peer, _ := r.rt.GetOffcode("net.Checksum")
	if h.Device() != peer.Device() {
		t.Fatalf("partial-reuse Pull violated: %v vs %v", h.Device(), peer.Device())
	}
	// Checksum was not re-initialized.
	count := 0
	for _, l := range r.log {
		if l == "init:net.Checksum" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("checksum initialized %d times", count)
	}
}

func TestDeployILPResolver(t *testing.T) {
	r := newRig(t, Config{Resolver: ResolveILP})
	r.stock(t, "fs.Index", 201, "Storage Device", "")
	h := deploy(t, r, "/offcodes/fs.Index.odf")
	if h.Device() != r.disk {
		t.Fatalf("ILP placed on %v, want disk0", h.Device())
	}
}

func TestDeployHostFallback(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "app.GUI", 301, "Display Device", "") // no GPU installed
	h := deploy(t, r, "/offcodes/app.GUI.odf")
	if h.Device() != nil {
		t.Fatal("GUI should have fallen back to the host")
	}
	if h.ImageSize() != 0 {
		t.Fatal("host placement should not link a device image")
	}
}

func TestDeployErrors(t *testing.T) {
	r := newRig(t, Config{})
	// Missing ODF.
	var gotErr error
	planDeploy(r.rt, "/nope.odf", func(h *Handle, err error) { gotErr = err })
	r.eng.RunAll()
	if gotErr == nil {
		t.Fatal("missing ODF deployed")
	}
	// Missing factory.
	r.depot.PutFile("/offcodes/x.odf", []byte(`<offcode>
	  <package><bindname>x</bindname><GUID>999</GUID></package>
	  <targets><host-fallback>true</host-fallback></targets></offcode>`))
	planDeploy(r.rt, "/offcodes/x.odf", func(h *Handle, err error) { gotErr = err })
	r.eng.RunAll()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "factory") {
		t.Fatalf("err = %v, want factory error", gotErr)
	}
}

func TestDeployCycleDetected(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "a", 1, "Network Device", importRef("b", 2, "Link"))
	r.stock(t, "b", 2, "Network Device", importRef("a", 1, "Link"))
	var gotErr error
	planDeploy(r.rt, "/offcodes/a.odf", func(h *Handle, err error) { gotErr = err })
	r.eng.RunAll()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", gotErr)
	}
}

func TestGetOffcodePseudo(t *testing.T) {
	r := newRig(t, Config{})
	for _, bind := range []string{"hydra.Runtime", "hydra.Heap", "hydra.ChannelExecutive"} {
		h, err := r.rt.GetOffcode(bind)
		if err != nil {
			t.Fatalf("%s: %v", bind, err)
		}
		if !h.Pseudo() || h.state != StateStarted {
			t.Fatalf("%s: %+v", bind, h)
		}
	}
	if _, err := r.rt.GetOffcode("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOOBChannelWorks(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	h := deploy(t, r, "/offcodes/net.Checksum.odf")
	fake := h.Behaviour().(*fakeOffcode)
	if fake.ctx == nil || fake.ctx.OOB == nil {
		t.Fatal("no OOB endpoint delivered at Initialize")
	}
	var got []byte
	fake.ctx.OOB.InstallCallHandler(func(d []byte) { got = d })
	if err := h.oobApp.Write([]byte("mgmt-event")); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if string(got) != "mgmt-event" {
		t.Fatalf("OOB delivery = %q", got)
	}
}

func TestCreateChannelAndInvoke(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	h := deploy(t, r, "/offcodes/net.Checksum.odf")

	appEnd, ch, _, err := r.rt.DefaultApp().CreateChannel(channel.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	fake := h.Behaviour().(*fakeOffcode)
	if len(fake.chans) != 1 {
		t.Fatal("offcode not notified of new channel")
	}
	var got []byte
	fake.chans[0].InstallCallHandler(func(d []byte) { got = d })
	if err := appEnd.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if string(got) != "payload" {
		t.Fatalf("channel delivery = %q", got)
	}
	_ = ch
}

func TestStopOffcodeCleansUp(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	h := deploy(t, r, "/offcodes/net.Checksum.odf")
	if err := r.rt.StopOffcode(h); err != nil {
		t.Fatal(err)
	}
	if h.state != StateStopped {
		t.Fatalf("state = %v", h.state)
	}
	found := false
	for _, l := range r.log {
		if l == "stop:net.Checksum" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Stop not called: %v", r.log)
	}
	if _, err := r.rt.GetOffcode("net.Checksum"); err == nil {
		t.Fatal("stopped offcode still registered")
	}
	// OOB channel is closed via the resource tree.
	if err := h.oobApp.Write([]byte("x")); !errors.Is(err, channel.ErrClosed) {
		t.Fatalf("OOB write after stop: %v", err)
	}
	// Pseudo offcodes cannot be stopped.
	rt, _ := r.rt.GetOffcode("hydra.Runtime")
	if err := r.rt.StopOffcode(rt); err == nil {
		t.Fatal("stopped a pseudo offcode")
	}
}

func TestDeviceLinkLoader(t *testing.T) {
	r := newRig(t, Config{Loader: LoaderDeviceLink})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	h := deploy(t, r, "/offcodes/net.Checksum.odf")
	if h.Device() != r.nic {
		t.Fatal("not placed on device")
	}
	// Device-link stages the encoded object too, so memory use exceeds
	// the image size.
	if r.nic.MemUsed() <= h.ImageSize() {
		t.Fatalf("device-link used %d bytes for a %d byte image; expected staging overhead",
			r.nic.MemUsed(), h.ImageSize())
	}
	img, err := r.nic.ReadMem(h.ImageAddr(), 16)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	for i := 0; i < 8; i++ {
		got |= uint64(img[8+i]) << (8 * i)
	}
	if got != r.nic.Exports()["hydra.Heap.Alloc"] {
		t.Fatalf("device-link reloc = %#x", got)
	}
}

func TestLoaderLatencyComparison(t *testing.T) {
	measure := func(kind LoaderKind) sim.Time {
		r := newRig(t, Config{Loader: kind})
		r.stock(t, "net.Checksum", 101, "Network Device", "")
		start := r.eng.Now()
		deploy(t, r, "/offcodes/net.Checksum.odf")
		return r.eng.Now() - start
	}
	hostLink := measure(LoaderHostLink)
	devLink := measure(LoaderDeviceLink)
	// The slow embedded core makes device-side linking slower end to end.
	if devLink <= hostLink {
		t.Fatalf("device-link (%v) should be slower than host-link (%v)", devLink, hostLink)
	}
}

func TestPinMemory(t *testing.T) {
	r := newRig(t, Config{})
	addr, node, err := r.rt.DefaultApp().PinMemory(4096)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 || node == nil {
		t.Fatal("bad pin result")
	}
	if _, _, err := r.rt.DefaultApp().PinMemory(0); err == nil {
		t.Fatal("zero-size pin accepted")
	}
}

func TestOffcodesListing(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	deploy(t, r, "/offcodes/net.Checksum.odf")
	names := r.rt.Offcodes()
	want := map[string]bool{
		"hydra.Runtime": true, "hydra.Heap": true,
		"hydra.ChannelExecutive": true, "net.Checksum": true,
	}
	if len(names) != len(want) {
		t.Fatalf("offcodes = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected offcode %s", n)
		}
	}
}

// --- Application sessions and transactional deployment plans ---

// stockNoFactory registers an ODF + object but no behaviour factory, so
// instantiation of this Offcode must fail mid-pipeline.
func (r *rig) stockNoFactory(t *testing.T, bind string, g uint64, targetClass string, imports string) {
	t.Helper()
	odfDoc := fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <sw-env>%s</sw-env>
  <targets>
    <device-class><name>%s</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`, bind, g, imports, targetClass)
	r.depot.PutFile("/offcodes/"+bind+".odf", []byte(odfDoc))
	obj := objfile.Synthesize(bind, guid.GUID(g), 512, []string{"hydra.Heap.Alloc"})
	if err := r.depot.RegisterObject(obj); err != nil {
		t.Fatal(err)
	}
}

// Regression (bugfix): a mid-list instantiate failure used to leak the
// memory already pinned for earlier Offcodes in the same closure — their
// OOB rings stayed on the hostos.LiveBytes ledger and their images stayed
// registered. The pipeline must roll the partial deployment back to the
// exact pre-deploy ledger and Offcode population. The default session and
// an explicit app's plan Commit share the pipeline and must both pass.
func TestDeployMidListFailureRollsBackPinnedMemory(t *testing.T) {
	run := func(t *testing.T, deploy func(r *rig) error) {
		r := newRig(t, Config{})
		r.stock(t, "net.Checksum", 101, "Network Device", "")
		// The root imports the (deployable) checksum but has no factory:
		// checksum instantiates first — pinning its OOB ring — then the
		// root's instantiate fails.
		r.stockNoFactory(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))

		liveBefore := r.host.LiveBytes()
		devBefore := r.nic.MemLive()
		offcodesBefore := len(r.rt.deployedHandles())

		err := deploy(r)
		if err == nil {
			t.Fatal("mid-list failure did not surface")
		}
		if !strings.Contains(err.Error(), "factory") {
			t.Fatalf("err = %v, want factory error", err)
		}
		if got := r.host.LiveBytes(); got != liveBefore {
			t.Fatalf("LiveBytes = %d after failed deploy, want %d (leaked %d B of pinned memory)",
				got, liveBefore, got-liveBefore)
		}
		if got := r.nic.MemLive(); got != devBefore {
			t.Fatalf("device MemLive = %d, want %d", got, devBefore)
		}
		if got := len(r.rt.deployedHandles()); got != offcodesBefore {
			t.Fatalf("deployed offcodes = %d, want %d", got, offcodesBefore)
		}
		if _, err := r.rt.GetOffcode("net.Checksum"); err == nil {
			t.Fatal("rolled-back import still registered")
		}
	}
	t.Run("default-session", func(t *testing.T) {
		run(t, func(r *rig) error {
			var derr error
			planDeploy(r.rt, "/offcodes/net.Socket.odf", func(h *Handle, err error) { derr = err })
			r.eng.RunAll()
			return derr
		})
	})
	t.Run("plan-commit", func(t *testing.T) {
		run(t, func(r *rig) error {
			app, err := r.rt.OpenApp("victim", AppConfig{})
			if err != nil {
				t.Fatal(err)
			}
			plan := app.Plan()
			if err := plan.AddRoot("/offcodes/net.Socket.odf"); err != nil {
				t.Fatal(err)
			}
			var derr error
			var dep *Deployment
			plan.Commit(func(d *Deployment, err error) { dep, derr = d, err })
			r.eng.RunAll()
			if derr != nil {
				if len(dep.Handles) != 0 {
					t.Fatalf("failed commit left handles: %v", dep.Handles)
				}
				if !strings.Contains(derr.Error(), "root net.Socket") {
					t.Fatalf("error does not name the failing root: %v", derr)
				}
			}
			return derr
		})
	})
}

// A failure in phase-one Initialize must roll back the same way.
func TestCommitRollsBackOnInitializeFailure(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	// A root whose behaviour factory fails at Initialize.
	odfDoc := `<offcode>
  <package><bindname>net.Bad</bindname><GUID>666</GUID></package>
  <sw-env>` + importRef("net.Checksum", 101, "Link") + `</sw-env>
  <targets><device-class><name>Network Device</name></device-class><host-fallback>true</host-fallback></targets>
</offcode>`
	r.depot.PutFile("/offcodes/net.Bad.odf", []byte(odfDoc))
	if err := r.depot.RegisterObject(objfile.Synthesize("net.Bad", 666, 512, []string{"hydra.Heap.Alloc"})); err != nil {
		t.Fatal(err)
	}
	if err := r.depot.RegisterFactory(666, func() any {
		return &fakeOffcode{name: "net.Bad", log: &r.log, initErr: errors.New("boom")}
	}); err != nil {
		t.Fatal(err)
	}

	liveBefore := r.host.LiveBytes()
	var derr error
	planDeploy(r.rt, "/offcodes/net.Bad.odf", func(h *Handle, err error) { derr = err })
	r.eng.RunAll()
	if derr == nil || !strings.Contains(derr.Error(), "Initialize") {
		t.Fatalf("err = %v", derr)
	}
	if got := r.host.LiveBytes(); got != liveBefore {
		t.Fatalf("LiveBytes = %d, want %d after Initialize-failure rollback", got, liveBefore)
	}
	if got := len(r.rt.deployedHandles()); got != 0 {
		t.Fatalf("deployed offcodes = %d, want 0", got)
	}
}

// Regression (bugfix): deploying a second ODF whose root reuses an
// existing bind name used to silently return the first instance and
// shadow its rootRecord bookkeeping. It must now fail with the typed
// ErrDuplicateBind — while same-path redeployment (component reuse) keeps
// working (TestDeployReuse).
func TestDuplicateBindRejectedAcrossPaths(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	deploy(t, r, "/offcodes/net.Checksum.odf")

	// A different document, same bind name.
	r.depot.PutFile("/offcodes/impostor.odf", []byte(`<offcode>
  <package><bindname>net.Checksum</bindname><GUID>999</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`))
	var derr error
	planDeploy(r.rt, "/offcodes/impostor.odf", func(h *Handle, err error) { derr = err })
	r.eng.RunAll()
	if !errors.Is(derr, ErrDuplicateBind) {
		t.Fatalf("err = %v, want ErrDuplicateBind", derr)
	}

	// Within one plan, two roots sharing a bind are rejected at AddRoot.
	r2 := newRig(t, Config{})
	r2.stock(t, "net.Checksum", 101, "Network Device", "")
	r2.depot.PutFile("/offcodes/impostor.odf", []byte(`<offcode>
  <package><bindname>net.Checksum</bindname><GUID>999</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`))
	plan := r2.rt.DefaultApp().Plan()
	if err := plan.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	if err := plan.AddRoot("/offcodes/impostor.odf"); !errors.Is(err, ErrDuplicateBind) {
		t.Fatalf("err = %v, want ErrDuplicateBind", err)
	}
}

func TestOpenAppNamesAndAdmission(t *testing.T) {
	r := newRig(t, Config{})
	if _, err := r.rt.OpenApp("a", AppConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.OpenApp("a", AppConfig{}); !errors.Is(err, ErrAppExists) {
		t.Fatalf("err = %v, want ErrAppExists", err)
	}
	if _, err := r.rt.OpenApp("", AppConfig{}); err == nil {
		t.Fatal("empty app name accepted")
	}
	if _, err := r.rt.OpenApp(defaultAppName, AppConfig{}); !errors.Is(err, ErrAppExists) {
		t.Fatalf("default name err = %v", err)
	}

	// Admission: the rig has a 2 MB NIC + 1 MB disk.
	free := r.rt.FreeDeviceMemory()
	big, err := r.rt.OpenApp("big", AppConfig{DeviceMemory: free - (64 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.OpenApp("late", AppConfig{DeviceMemory: 128 << 10}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}
	// Closing the reservation holder re-admits.
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.OpenApp("late", AppConfig{DeviceMemory: 128 << 10}); err != nil {
		t.Fatalf("post-close admission failed: %v", err)
	}
}

func TestAppQuotasEnforced(t *testing.T) {
	r := newRig(t, Config{})
	app, err := r.rt.OpenApp("tenant", AppConfig{MemoryQuota: 64 << 10, ChannelQuota: 1, OffcodeQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Memory quota.
	if _, _, err := app.PinMemory(32 << 10); err != nil {
		t.Fatal(err)
	}
	var qerr *resource.QuotaError
	if _, _, err := app.PinMemory(48 << 10); !errors.As(err, &qerr) {
		t.Fatalf("over-quota pin err = %v", err)
	} else if qerr.Kind != QuotaMemory {
		t.Fatalf("quota kind = %q", qerr.Kind)
	}

	// Offcode quota: a two-Offcode closure cannot fit a quota of one, and
	// the rejection happens before any hardware is touched.
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stock(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))
	live := r.host.LiveBytes()
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/net.Socket.odf"); err != nil {
		t.Fatal(err)
	}
	var derr error
	plan.Commit(func(d *Deployment, err error) { derr = err })
	r.eng.RunAll()
	if !errors.As(derr, &qerr) || qerr.Kind != QuotaOffcodes {
		t.Fatalf("offcode-quota err = %v", derr)
	}
	if r.host.LiveBytes() != live {
		t.Fatal("rejected plan touched the memory ledger")
	}

	// Channel quota: deploy one offcode through a roomier app, then hit
	// the one-channel bound.
	app2, err := r.rt.OpenApp("tenant2", AppConfig{ChannelQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2 := app2.Plan()
	if err := p2.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	var h *Handle
	p2.Commit(func(d *Deployment, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		h = d.Handles["net.Checksum"]
	})
	r.eng.RunAll()
	if h == nil {
		t.Fatal("commit did not produce a handle")
	}
	cfg := channel.DefaultConfig()
	if _, _, _, err := app2.CreateChannel(cfg, h); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := app2.CreateChannel(cfg, h); !errors.As(err, &qerr) || qerr.Kind != QuotaChannels {
		t.Fatalf("channel-quota err = %v", err)
	}
}

// The pure front half of the pipeline (closure → layout graph → resolve)
// touches no hardware and consumes no simulated time; Commit then places
// exactly what it solved.
func TestSolveRootTouchesNoHardware(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stock(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))
	app, err := r.rt.OpenApp("solver", AppConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, devMem, now := r.host.LiveBytes(), r.nic.MemUsed(), r.eng.Now()
	s, err := r.rt.solveRoot("/offcodes/net.Socket.odf", newPlacedSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.host.LiveBytes() != live || r.nic.MemUsed() != devMem || r.eng.Now() != now {
		t.Fatal("solveRoot touched hardware or consumed simulated time")
	}
	if len(r.rt.deployedHandles()) != 0 {
		t.Fatal("solveRoot registered offcodes")
	}
	// Instantiation order: the Pull import first, both on the NIC.
	if len(s.odfs) != 2 || s.odfs[0].BindName != "net.Checksum" || s.odfs[1].BindName != "net.Socket" {
		t.Fatalf("solved %d offcodes: %+v", len(s.odfs), s.odfs)
	}
	for i, o := range s.odfs {
		if ref := s.target(i); ref == nil || ref.d != r.nic {
			t.Fatalf("%s not solved onto nic0", o.BindName)
		}
	}
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/net.Socket.odf"); err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	plan.Commit(func(d *Deployment, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		dep = d
	})
	r.eng.RunAll()
	if dep == nil {
		t.Fatal("commit incomplete")
	}
	for _, bind := range []string{"net.Checksum", "net.Socket"} {
		got, err := r.rt.GetOffcode(bind)
		if err != nil {
			t.Fatal(err)
		}
		if got.Device() != r.nic {
			t.Fatalf("commit placed %s off the solved target", bind)
		}
	}
	if dep.Finished < dep.Started {
		t.Fatalf("timings: %v..%v", dep.Started, dep.Finished)
	}
}

func TestMultiRootPlanAtomicity(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stockNoFactory(t, "fs.Broken", 202, "Storage Device", "")
	app, err := r.rt.OpenApp("multi", AppConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live := r.host.LiveBytes()
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	if err := plan.AddRoot("/offcodes/fs.Broken.odf"); err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	var derr error
	plan.Commit(func(d *Deployment, err error) { dep, derr = d, err })
	r.eng.RunAll()
	if derr == nil {
		t.Fatal("broken second root did not fail the commit")
	}
	// The healthy first root was rolled back too: all-or-nothing.
	if _, err := r.rt.GetOffcode("net.Checksum"); err == nil {
		t.Fatal("first root survived a failed multi-root commit")
	}
	if r.host.LiveBytes() != live {
		t.Fatalf("ledger leaked %d bytes", r.host.LiveBytes()-live)
	}
	if !strings.Contains(derr.Error(), "root fs.Broken") {
		t.Fatalf("error does not name the failing root: %v", derr)
	}
	if len(r.rt.roots) != 0 {
		t.Fatalf("failed commit left root records: %+v", r.rt.roots)
	}

	// The same plan contents succeed when both roots are deployable, and
	// both handles arrive in one Deployment.
	r.depot.RegisterFactory(202, func() any { return &fakeOffcode{name: "fs.Broken", log: &r.log} })
	plan2 := app.Plan()
	if err := plan2.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	if err := plan2.AddRoot("/offcodes/fs.Broken.odf"); err != nil {
		t.Fatal(err)
	}
	plan2.Commit(func(d *Deployment, err error) { dep, derr = d, err })
	r.eng.RunAll()
	if derr != nil {
		t.Fatal(derr)
	}
	if len(dep.Handles) != 2 || dep.Handles["net.Checksum"] == nil || dep.Handles["fs.Broken"] == nil {
		t.Fatalf("handles = %+v", dep.Handles)
	}
	if got := len(app.handles); got != 2 {
		t.Fatalf("app owns %d offcodes", got)
	}
}

func TestAppCloseStopsInReverseOrderAndReclaims(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stock(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))
	app, err := r.rt.OpenApp("tenant", AppConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live := r.host.LiveBytes()
	devLive := r.nic.MemLive()
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/net.Socket.odf"); err != nil {
		t.Fatal(err)
	}
	var h *Handle
	plan.Commit(func(d *Deployment, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		h = d.Handles["net.Socket"]
	})
	r.eng.RunAll()
	if h == nil {
		t.Fatal("commit incomplete")
	}
	if _, _, err := app.PinMemory(16 << 10); err != nil {
		t.Fatal(err)
	}
	r.log = nil
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	// Reverse dependency order: the importer stops before its import.
	if len(r.log) != 2 || r.log[0] != "stop:net.Socket" || r.log[1] != "stop:net.Checksum" {
		t.Fatalf("stop order = %v", r.log)
	}
	if got := r.host.LiveBytes(); got != live {
		t.Fatalf("LiveBytes = %d after Close, want %d", got, live)
	}
	if got := r.nic.MemLive(); got != devLive {
		t.Fatalf("device MemLive = %d, want %d", got, devLive)
	}
	if len(r.rt.roots) != 0 {
		t.Fatalf("closed app left root records: %+v", r.rt.roots)
	}
	if r.rt.App("tenant") != nil {
		t.Fatal("closed app still listed")
	}
	// Idempotent.
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed app rejects further use.
	if _, _, err := app.PinMemory(4096); !errors.Is(err, ErrAppClosed) {
		t.Fatalf("pin on closed app: %v", err)
	}
	if err := app.Plan().AddRoot("/offcodes/net.Socket.odf"); !errors.Is(err, ErrAppClosed) {
		t.Fatalf("plan on closed app: %v", err)
	}
}

// Regression (review): a failed commit's rollback must not forget root
// records it did not create — a plan that merely reused a running root
// and then failed on another root used to delete the running service's
// failover record.
func TestFailedCommitKeepsReusedRootRecords(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stockNoFactory(t, "fs.Broken", 202, "Storage Device", "")
	deploy(t, r, "/offcodes/net.Checksum.odf") // plan 1: records the root
	if len(r.rt.roots) != 1 {
		t.Fatalf("roots = %+v", r.rt.roots)
	}

	plan := r.rt.DefaultApp().Plan()
	if err := plan.AddRoot("/offcodes/net.Checksum.odf"); err != nil { // same-path reuse
		t.Fatal(err)
	}
	if err := plan.AddRoot("/offcodes/fs.Broken.odf"); err != nil {
		t.Fatal(err)
	}
	var derr error
	plan.Commit(func(d *Deployment, err error) { derr = err })
	r.eng.RunAll()
	if derr == nil {
		t.Fatal("broken root did not fail the commit")
	}
	// The reused service keeps running AND keeps its failover record.
	if _, err := r.rt.GetOffcode("net.Checksum"); err != nil {
		t.Fatalf("reused root was rolled back: %v", err)
	}
	if len(r.rt.roots) != 1 || r.rt.roots[0].bind != "net.Checksum" {
		t.Fatalf("failed commit dropped the pre-existing root record: %+v", r.rt.roots)
	}
}

// Regression (review): admission is a reservation model against device
// capacity — an admitted tenant's live allocations must not also shrink
// what later tenants can reserve.
func TestAdmissionDoesNotDoubleCountLiveAllocations(t *testing.T) {
	r := newRig(t, Config{})
	var capacity int64
	for _, d := range r.rt.availableDevices() {
		capacity += int64(d.Config().LocalMemBytes)
	}
	a, err := r.rt.OpenApp("a", AppConfig{DeviceMemory: capacity / 2})
	if err != nil {
		t.Fatal(err)
	}
	// The tenant deploys within its reservation (a 512 B image).
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	p := a.Plan()
	if err := p.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	var derr error
	p.Commit(func(d *Deployment, err error) { derr = err })
	r.eng.RunAll()
	if derr != nil {
		t.Fatal(derr)
	}
	// Another tenant can still reserve the remaining half of capacity:
	// tenant a's image draws down a's reservation, not the shared pool.
	if _, err := r.rt.OpenApp("b", AppConfig{DeviceMemory: capacity / 2}); err != nil {
		t.Fatalf("admission double-counted live allocations: %v", err)
	}
}

// A multi-root plan may wire a later root to an earlier one by GUID alone
// (no bind name, no file): the planned set resolves it like a deployed
// handle would.
func TestPlanResolvesGUIDOnlyImportAcrossRoots(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	// The consumer imports GUID 101 with no file and no bind name.
	r.depot.PutFile("/offcodes/consumer.odf", []byte(`<offcode>
  <package><bindname>net.Consumer</bindname><GUID>300</GUID></package>
  <sw-env><import><reference type="Link"><GUID>101</GUID></reference></import></sw-env>
  <targets><device-class><name>Network Device</name></device-class><host-fallback>true</host-fallback></targets>
</offcode>`))
	if err := r.depot.RegisterObject(objfile.Synthesize("net.Consumer", 300, 512, []string{"hydra.Heap.Alloc"})); err != nil {
		t.Fatal(err)
	}
	r.depot.RegisterFactory(300, func() any { return &fakeOffcode{name: "net.Consumer", log: &r.log} })

	app, err := r.rt.OpenApp("guidplan", AppConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	if err := plan.AddRoot("/offcodes/consumer.odf"); err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	var derr error
	plan.Commit(func(d *Deployment, err error) { dep, derr = d, err })
	r.eng.RunAll()
	if derr != nil {
		t.Fatal(derr)
	}
	if len(dep.Handles) != 2 {
		t.Fatalf("handles = %+v", dep.Handles)
	}
}

// Regression (review): the device-link loader stages the raw object next
// to the placed image; teardown must return BOTH to the device ledger.
func TestDeviceLinkTeardownReclaimsStagingMemory(t *testing.T) {
	r := newRig(t, Config{Loader: LoaderDeviceLink})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	before := r.nic.MemLive()
	h := deploy(t, r, "/offcodes/net.Checksum.odf")
	if h.devMemBytes <= h.ImageSize() {
		t.Fatalf("device-link devBytes %d should exceed image %d (staging)", h.devMemBytes, h.ImageSize())
	}
	if err := r.rt.StopOffcode(h); err != nil {
		t.Fatal(err)
	}
	if got := r.nic.MemLive(); got != before {
		t.Fatalf("device MemLive = %d after stop, want %d (staging leaked)", got, before)
	}
}

// Regression (review): the admission reservation is an enforced cap — a
// session cannot load more device memory than it reserved, and the
// over-reservation commit rolls back cleanly.
func TestReservationCapsDeviceLoads(t *testing.T) {
	r := newRig(t, Config{})
	app, err := r.rt.OpenApp("capped", AppConfig{DeviceMemory: 256}) // < the 512 B image
	if err != nil {
		t.Fatal(err)
	}
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	live, devLive := r.host.LiveBytes(), r.nic.MemLive()
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	var derr error
	plan.Commit(func(d *Deployment, err error) { derr = err })
	r.eng.RunAll()
	var qerr *resource.QuotaError
	if !errors.As(derr, &qerr) || qerr.Kind != QuotaDeviceMemory {
		t.Fatalf("err = %v, want device-memory QuotaError", derr)
	}
	if r.host.LiveBytes() != live || r.nic.MemLive() != devLive {
		t.Fatalf("over-reservation commit leaked: host %d→%d dev %d→%d",
			live, r.host.LiveBytes(), devLive, r.nic.MemLive())
	}
	if len(r.rt.deployedHandles()) != 0 {
		t.Fatal("over-reservation commit left offcodes")
	}
}

// Commit refuses a plan that already committed and a plan of a closed
// session, without touching anything.
func TestCommitChecksPlanState(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	app, err := r.rt.OpenApp("solver", AppConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	plan.Commit(func(*Deployment, error) {})
	r.eng.RunAll()
	deploys := r.rt.Deployments()
	var again error
	plan.Commit(func(_ *Deployment, err error) { again = err })
	if again == nil || !strings.Contains(again.Error(), "committed") {
		t.Fatalf("Commit after commit: %v", again)
	}
	plan2 := app.Plan()
	if err := plan2.AddRoot("/offcodes/net.Checksum.odf"); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	var closed error
	plan2.Commit(func(_ *Deployment, err error) { closed = err })
	if !errors.Is(closed, ErrAppClosed) {
		t.Fatalf("Commit on closed app: %v", closed)
	}
	if r.rt.Deployments() != deploys {
		t.Fatal("a refused Commit counted as a deployment")
	}
}
