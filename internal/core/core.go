// Package core is the HYDRA runtime (§4): the Offloading Access Layer that
// OA-applications program against, the deployment pipeline that turns ODF
// manifests into placed, linked, running Offcodes, the Channel Executive
// that builds communication channels to the Offcodes,
// the hierarchical Resource Management unit, the Memory Management module
// (user-memory pinning for zero-copy channels), and the pseudo Offcodes
// (hydra.Runtime, hydra.Heap, hydra.ChannelExecutive) that firmware and
// user Offcodes link against.
package core

import (
	"errors"
	"fmt"
	"sort"

	"hydra/internal/bus"
	"hydra/internal/channel"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/odf"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

// State tracks an Offcode's lifecycle (§3.1 two-phase initialization).
type State int

// Lifecycle states.
const (
	StateCreated State = iota
	StateInitialized
	StateStarted
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateInitialized:
		return "initialized"
	case StateStarted:
		return "started"
	case StateStopped:
		return "stopped"
	}
	return "invalid"
}

// Offcode is the behaviour contract every Offcode implements — the paper's
// IOffcode. Initialize runs before peers exist ("the Offcode can access
// local resources only"); Start runs "once all the related Offcodes have
// been offloaded", when inter-Offcode communication is available.
type Offcode interface {
	Initialize(ctx *Context) error
	Start() error
	Stop() error
}

// Checkpointer is optionally implemented by Offcodes that can carry state
// across a migration. During failover the runtime calls Checkpoint before
// stopping the Offcode and Restore on the re-instantiated one, between
// Initialize and Start, so a migrated service resumes where it left off
// (e.g. a streaming File Offcode keeps its read offset).
type Checkpointer interface {
	Checkpoint() []byte
	Restore(state []byte) error
}

// Context is what the runtime hands an Offcode at Initialize.
type Context struct {
	Runtime *Runtime
	Handle  *Handle
	// Device is nil when the Offcode landed on the host CPU.
	Device *device.Device
	Host   *hostos.Machine
	// OOB is this Offcode's end of its out-of-band channel, present on
	// every Offcode "for initialization and control traffic".
	OOB *channel.Endpoint
}

// Handle is the runtime's record of one deployed Offcode instance.
type Handle struct {
	BindName string
	GUID     guid.GUID
	ODF      *odf.ODF

	state     State
	behaviour Offcode
	dev       *device.Device // nil = host placement
	imageAddr uint64         // device-local address of the linked image
	imageSize int
	// devMemBytes is the total device memory the load allocated (image
	// plus loader staging); teardown returns it via device.FreeMem —
	// unless the device's memory generation moved on (a crash restore
	// wiped the ledger, which already forgot this allocation).
	devMemBytes int
	devMemGen   uint64
	res         *resource.Node
	oobApp      *channel.Endpoint // application/runtime side
	oobOC       *channel.Endpoint // Offcode side
	pseudo      bool
	seq         uint64 // global instantiation order; failover stops in reverse
	app         *App   // owning application session (nil for pseudo Offcodes)
	srcPath     string // depot path of the ODF this instance was loaded from

	// attached records the session channels the Channel Executive connected
	// to this instance (the Offcode-side endpoints), so a live Replace can
	// quiesce them and hand the surviving channels to the replacement.
	attached []attachedEnd
}

// App returns the application session that owns this Offcode (nil for
// runtime-provided pseudo Offcodes).
func (h *Handle) App() *App { return h.app }

// Device reports the placement target (nil for host).
func (h *Handle) Device() *device.Device { return h.dev }

// Behaviour returns the running Offcode instance.
func (h *Handle) Behaviour() Offcode { return h.behaviour }

// Pseudo reports whether this is a runtime-provided pseudo Offcode.
func (h *Handle) Pseudo() bool { return h.pseudo }

// ImageAddr reports where the linked image was placed in device memory.
func (h *Handle) ImageAddr() uint64 { return h.imageAddr }

// ImageSize reports the placed image size in bytes.
func (h *Handle) ImageSize() int { return h.imageSize }

// Resolver selects the layout resolution strategy.
type Resolver int

// Resolvers.
const (
	// ResolveGreedy uses the fast heuristic (default; "simple graphs are
	// usually trivial to solve").
	ResolveGreedy Resolver = iota
	// ResolveILP uses the §5 integer program for provably optimal layouts.
	ResolveILP
)

// Config tunes the runtime. Placement always maximizes the number of
// offloaded Offcodes (layout.MaximizeOffload).
type Config struct {
	Resolver Resolver
	// Loader selects the dynamic-loading strategy of §4.2; see loaders.go.
	Loader LoaderKind
}

// Runtime is one host's HYDRA instance.
type Runtime struct {
	eng   *sim.Engine
	host  *hostos.Machine
	bus   *bus.Bus
	depot *depot.Depot
	cfg   Config

	devices []*device.Device
	loaders map[LoaderKind]Loader

	root    *resource.Node
	byGUID  map[guid.GUID]*Handle
	byBind  map[string]*Handle
	deploys uint64
	instSeq uint64

	// tr is the engine's trace shard when CatCore is enabled, else nil;
	// deploy commits, checkpoints and restores record on it. trm is the
	// CatMutate shard carrying live-mutation windows (hot-swap quiesce,
	// replay, rollback), so mutation impact separates cleanly from steady
	// deployment traffic in a trace breakdown.
	tr  *obs.Shard
	trm *obs.Shard

	// Application sessions (see app.go): every deployment belongs to one.
	// defaultApp owns runtime-internal deployments (failover redeploys of
	// roots whose session has closed).
	apps       map[string]*App
	defaultApp *App

	// Self-healing state (see health.go): the deployment roots the runtime
	// is responsible for re-establishing after a device failure, checkpoints
	// awaiting restoration into re-instantiated Offcodes, the health
	// monitor, and the recovery history.
	roots          []rootRecord
	pendingRestore map[string][]byte
	monitor        *Monitor
	migrating      bool
	activeRec      *Recovery
	recoveries     []*Recovery

	// vfs is the host's virtual file/net surface, built lazily the first
	// time a session opens a syscall plane (see syscalls.go).
	vfs *hostos.VFS
}

// rootRecord remembers one successfully committed deployment root so
// failover can re-establish the same services — under the same application
// session — over the surviving targets.
type rootRecord struct {
	path string
	bind string // the root ODF's bind name
	app  *App   // owning session; redeployed under it after a failure
}

// New creates a runtime on the host. Devices are registered afterwards with
// RegisterDevice.
func New(eng *sim.Engine, host *hostos.Machine, b *bus.Bus, dep *depot.Depot, cfg Config) *Runtime {
	rt := &Runtime{
		eng: eng, host: host, bus: b, depot: dep, cfg: cfg,
		loaders: make(map[LoaderKind]Loader),
		root:    resource.NewRoot("hydra"),
		byGUID:  make(map[guid.GUID]*Handle),
		byBind:  make(map[string]*Handle),
		apps:    make(map[string]*App),
		tr:      obs.ForCat(eng, obs.CatCore),
		trm:     obs.ForCat(eng, obs.CatMutate),
	}
	rt.loaders[LoaderHostLink] = &hostLinkLoader{rt: rt}
	rt.loaders[LoaderDeviceLink] = &deviceLinkLoader{rt: rt}
	rt.registerPseudoOffcodes()
	app, err := rt.OpenApp(defaultAppName, AppConfig{})
	if err != nil {
		panic("core: default app: " + err.Error()) // fresh runtime; cannot collide
	}
	rt.defaultApp = app
	return rt
}

// DefaultApp returns the runtime's built-in session.
func (rt *Runtime) DefaultApp() *App { return rt.defaultApp }

// RegisterDevice attaches a programmable device. The device firmware's
// exports gain the runtime's pseudo-Offcode symbols, which user Offcodes
// link against.
func (rt *Runtime) RegisterDevice(d *device.Device) {
	rt.devices = append(rt.devices, d)
	// Firmware symbol table: addresses are synthetic but stable.
	base := uint64(0xF000_0000)
	for i, sym := range []string{
		"hydra.Runtime.GetOffcode",
		"hydra.Runtime.CreateOffcode",
		"hydra.Heap.Alloc",
		"hydra.Heap.Free",
		"hydra.ChannelExecutive.CreateChannel",
		"hydra.Channel.Read",
		"hydra.Channel.Write",
		"hydra.Channel.Poll",
		"hydra.Loader.AllocateOffcodeMemory",
	} {
		d.Export(sym, base+uint64(i)*0x100)
	}
}

// availableDevices lists the registered devices currently healthy enough to
// host Offcodes — the offload targets Deploy and failover solve over.
func (rt *Runtime) availableDevices() []*device.Device {
	out := make([]*device.Device, 0, len(rt.devices))
	for _, d := range rt.devices {
		if d.Healthy() {
			out = append(out, d)
		}
	}
	return out
}

// deployedHandles lists the live non-pseudo Offcodes in instantiation
// order; reversing it gives the dependency-safe stop order (importers were
// instantiated after their imports).
func (rt *Runtime) deployedHandles() []*Handle {
	var out []*Handle
	for _, h := range rt.byBind {
		if !h.pseudo {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// recordRoot remembers a successful deployment root (deduplicated by
// path), reporting whether a new record was added — callers that may need
// to undo the record (plan rollback) must not forget records they merely
// re-confirmed.
func (rt *Runtime) recordRoot(path, bind string, app *App) bool {
	for _, r := range rt.roots {
		if r.path == path {
			return false
		}
	}
	rt.roots = append(rt.roots, rootRecord{path: path, bind: bind, app: app})
	return true
}

// rerecordRoot repoints an existing root record at a new ODF path after a
// successful hot-swap, so failover redeploys the replacement, not the
// version it replaced.
func (rt *Runtime) rerecordRoot(bind, path string) {
	for i := range rt.roots {
		if rt.roots[i].bind == bind {
			rt.roots[i].path = path
		}
	}
}

// forgetRoot drops root records whose root Offcode was stopped explicitly,
// so failover does not resurrect a service the application shut down.
func (rt *Runtime) forgetRoot(bind string) {
	kept := rt.roots[:0]
	for _, r := range rt.roots {
		if r.bind != bind {
			kept = append(kept, r)
		}
	}
	rt.roots = kept
}

// ErrNotFound reports a missing Offcode.
var ErrNotFound = errors.New("core: offcode not found")

// GetOffcode resolves a deployed (or pseudo) Offcode by bind name — the
// runtime API the paper's Figure 3 uses to fetch hydra.ChannelExecutive.
func (rt *Runtime) GetOffcode(bind string) (*Handle, error) {
	if h, ok := rt.byBind[bind]; ok {
		return h, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, bind)
}

// Offcodes lists deployed bind names, sorted (pseudo Offcodes included).
func (rt *Runtime) Offcodes() []string {
	out := make([]string, 0, len(rt.byBind))
	for b := range rt.byBind {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// registerPseudoOffcodes installs the runtime components that "happen to be
// implemented as Offcodes" (§4): hydra.Runtime, hydra.Heap and
// hydra.ChannelExecutive.
func (rt *Runtime) registerPseudoOffcodes() {
	for _, p := range []struct {
		bind string
		g    guid.GUID
	}{
		{"hydra.Runtime", guid.IIDRuntime},
		{"hydra.Heap", guid.IIDHeap},
		{"hydra.ChannelExecutive", guid.IIDChannelExecutive},
	} {
		h := &Handle{
			BindName: p.bind, GUID: p.g, state: StateStarted, pseudo: true,
			res: rt.root.MustChild(p.bind, nil),
		}
		rt.byBind[p.bind] = h
		rt.byGUID[p.g] = h
	}
}
