package core

import (
	"fmt"
	"slices"

	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/layout"
	"hydra/internal/obs"
	"hydra/internal/odf"
)

// This file is the §3.4 deployment pipeline (Figure 5) shared by every
// entry point:
//
//  1. process the ODF closure (the root plus every transitive import),
//  2. construct the offloading layout graph,
//  3. resolve the Offcode↔device mapping (greedy or ILP),
//  4. adapt each instance to its target (link against firmware exports),
//  5. offload (transfer the image, modeled on the bus) and instantiate,
//  6. Initialize every new Offcode, then StartOffcode each one.
//
// Steps 1–3 are pure — no hardware is touched — and run in solveRoot;
// steps 4–6 take simulated time and run under DeployPlan.Commit (plan.go)
// with rollback.

// deviceRef wraps a device placement; nil means host placement.
type deviceRef struct{ d *device.Device }

// closure loads the ODF at path and, transitively, every import, returning
// the documents keyed by path and a root-first order. placed is the set of
// bind names earlier plan roots will have deployed by the time this root
// commits; GUID-only imports may resolve against it.
func (rt *Runtime) closure(path string, placed *placedSet) (map[string]*odf.ODF, []string, error) {
	docs := make(map[string]*odf.ODF)
	var order []string
	var visit func(p string, stack map[string]bool) error
	visit = func(p string, stack map[string]bool) error {
		if stack[p] {
			return fmt.Errorf("core: import cycle through %s", p)
		}
		if _, seen := docs[p]; seen {
			return nil
		}
		o, err := rt.depot.LoadODF(p)
		if err != nil {
			return err
		}
		docs[p] = o
		order = append(order, p)
		stack[p] = true
		for _, imp := range o.Imports {
			if imp.File == "" {
				// Import resolved by GUID against already-deployed (or
				// earlier-planned) Offcodes; nothing to load.
				if _, err := rt.resolveImport(imp, placed); err != nil {
					return fmt.Errorf("core: %s: %w", o.BindName, err)
				}
				continue
			}
			if err := visit(imp.File, stack); err != nil {
				return err
			}
		}
		delete(stack, p)
		return nil
	}
	if err := visit(path, map[string]bool{}); err != nil {
		return nil, nil, err
	}
	return docs, order, nil
}

// peer is where an import's target runs, or will run once the plan
// commits: its bind name and device (nil = host).
type peer struct {
	bind string
	dev  *device.Device
}

// placedSet tracks the Offcodes earlier roots of the same plan will have
// deployed, so later roots solve against the full planned state without
// any hardware having been touched yet. Indexed by bind name and by GUID,
// mirroring how deployed handles resolve imports.
type placedSet struct {
	byBind map[string]peer
	byGUID map[guid.GUID]peer
}

func newPlacedSet() *placedSet {
	return &placedSet{
		byBind: make(map[string]peer),
		byGUID: make(map[guid.GUID]peer),
	}
}

// resolveImport finds the peer an import names: a deployed Offcode
// first, then one an earlier root of the plan will deploy; each by GUID
// before bind name. No index holds the zero GUID or an empty bind name
// (odf.Parse rejects both), so a reference that omits one matches by the
// other.
func (rt *Runtime) resolveImport(imp odf.Reference, placed *placedSet) (peer, error) {
	if h, ok := rt.byGUID[imp.GUID]; ok {
		return peer{h.BindName, h.dev}, nil
	}
	if h, ok := rt.byBind[imp.BindName]; ok {
		return peer{h.BindName, h.dev}, nil
	}
	if p, ok := placed.byGUID[imp.GUID]; ok {
		return p, nil
	}
	if p, ok := placed.byBind[imp.BindName]; ok {
		return p, nil
	}
	return peer{}, fmt.Errorf("unresolved import %s (GUID %v)", imp.BindName, imp.GUID)
}

// targetIndex maps a device to its layout target among avail: 0 for the
// host (nil), i+1 for avail[i]; false when the device is not available.
func targetIndex(avail []*device.Device, dev *device.Device) (int, bool) {
	if dev == nil {
		return 0, true
	}
	i := slices.Index(avail, dev)
	return i + 1, i >= 0
}

// solvedRoot is the pure front half of the pipeline for one root: the new
// Offcodes in instantiation order (deepest imports first), their source
// paths, the placement over a healthy-device snapshot, and the closure
// members satisfied by existing or earlier-planned instances.
type solvedRoot struct {
	path, bind string
	odfs       []*odf.ODF
	paths      []string
	placement  layout.Placement
	devices    []*device.Device
	reused     []string
}

// solveRoot runs steps 1–3 for the root at path: closure, layout graph,
// resolution. It touches no hardware and consumes no simulated time.
// placed carries the state earlier plan roots will have established and is
// extended with this root's outcome. pins forces named Offcodes onto one
// fixed target (nil device = host) on top of the ODF constraint graph:
// hot-swap uses it, because a replacement must land exactly where the
// instance it replaces ran — the surviving channel endpoints are bound to
// that execution context.
func (rt *Runtime) solveRoot(path string, placed *placedSet, pins map[string]*device.Device) (*solvedRoot, error) {
	docs, order, err := rt.closure(path, placed)
	if err != nil {
		return nil, err
	}
	rootODF := docs[order[0]]
	out := &solvedRoot{path: path, bind: rootODF.BindName}

	// Layout graph over the *new* Offcodes only; deployed (or
	// earlier-planned) ones keep their placement. Imports that resolve to
	// existing instances are filtered out of the graph, but their
	// Pull/Gang constraints still bind: they restrict the importer's
	// compatibility vector below.
	type pinned struct {
		node int
		imp  odf.Reference
		peer peer
	}
	var peerPins []pinned
	newSet := make(map[string]bool)
	for _, p := range order {
		o := docs[p]
		_, deployed := rt.byBind[o.BindName]
		_, planned := placed.byBind[o.BindName]
		if !deployed && !planned {
			newSet[o.BindName] = true
		}
	}
	for _, p := range order {
		o := docs[p]
		if !newSet[o.BindName] {
			out.reused = append(out.reused, o.BindName)
			continue
		}
		filtered := *o
		filtered.Imports = nil
		for _, imp := range o.Imports {
			if newSet[imp.BindName] {
				filtered.Imports = append(filtered.Imports, imp)
				continue
			}
			// Peer exists already (deployed) or will exist (planned).
			pr, err := rt.resolveImport(imp, placed)
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", o.BindName, err)
			}
			peerPins = append(peerPins, pinned{node: len(out.odfs), imp: imp, peer: pr})
		}
		out.odfs = append(out.odfs, &filtered)
		out.paths = append(out.paths, p)
	}
	if len(out.odfs) == 0 {
		return out, nil // everything already deployed (or planned)
	}

	// Solve over the *available* targets only: a crashed device is
	// not a placement candidate, which is how failover re-layouts route
	// around dead hardware.
	avail := rt.availableDevices()
	targets := make([]layout.Target, 0, len(avail))
	for _, d := range avail {
		targets = append(targets, layout.Target{Name: d.Name(), Class: d.Class()})
	}
	graph, err := layout.FromODFs(out.odfs, targets)
	if err != nil {
		return nil, err
	}
	// Apply constraints against existing peers by narrowing the importer's
	// compatibility vector.
	for _, pin := range peerPins {
		peerTarget, ok := targetIndex(avail, pin.peer.dev)
		if !ok {
			return nil, fmt.Errorf("core: %s: peer %s is placed on failed device %s",
				out.odfs[pin.node].BindName, pin.peer.bind, pin.peer.dev.Name())
		}
		node := &graph.Nodes[pin.node]
		switch pin.imp.Type {
		case odf.Pull:
			for t := range node.Compat {
				node.Compat[t] = node.Compat[t] && t == peerTarget
			}
		case odf.Gang:
			// Peer offloaded ⇒ importer must offload; peer on host ⇒
			// importer must stay.
			for t := range node.Compat {
				if peerTarget == 0 {
					node.Compat[t] = node.Compat[t] && t == 0
				} else {
					node.Compat[t] = node.Compat[t] && t != 0
				}
			}
		case odf.AsymmetricGang:
			// importer→peer: offloading the importer requires the peer
			// offloaded; if the peer is on the host, pin to host.
			if peerTarget == 0 {
				for t := range node.Compat {
					node.Compat[t] = node.Compat[t] && t == 0
				}
			}
		}
		if !slices.Contains(node.Compat, true) {
			return nil, fmt.Errorf("core: %s: constraint %s against deployed peer %s is unsatisfiable",
				node.BindName, pin.imp.Type, pin.peer.bind)
		}
	}
	// Placement pins narrow a node to one fixed target on top of whatever
	// the ODF constraints allow.
	for i, o := range out.odfs {
		dev, pinnedHere := pins[o.BindName]
		if !pinnedHere {
			continue
		}
		target, ok := targetIndex(avail, dev)
		if !ok {
			return nil, fmt.Errorf("core: %s: pinned device %s is not an available target",
				o.BindName, dev.Name())
		}
		node := &graph.Nodes[i]
		for t := range node.Compat {
			node.Compat[t] = node.Compat[t] && t == target
		}
		if !node.Compat[target] {
			return nil, fmt.Errorf("core: %s: replacement cannot keep placement %s",
				o.BindName, targetName(dev))
		}
	}
	var placement layout.Placement
	switch rt.cfg.Resolver {
	case ResolveILP:
		placement, _, err = graph.SolveILP(layout.MaximizeOffload)
	default:
		placement, err = graph.SolveGreedy(layout.MaximizeOffload)
	}
	if err != nil {
		return nil, fmt.Errorf("core: layout resolution: %w", err)
	}

	// Instantiation goes deepest imports first.
	slices.Reverse(out.odfs)
	slices.Reverse(out.paths)
	slices.Reverse(placement)
	out.placement = placement
	out.devices = avail

	// Extend the planned state for the roots that follow.
	for i, o := range out.odfs {
		pr := peer{bind: o.BindName}
		if t := placement[i]; t != 0 {
			pr.dev = avail[t-1]
		}
		placed.byBind[o.BindName] = pr
		placed.byGUID[o.GUID] = pr
	}
	return out, nil
}

// targetName names a placement target for diagnostics (nil = host).
func targetName(d *device.Device) string {
	if d == nil {
		return "host"
	}
	return d.Name()
}

// target returns the placement device for odfs[i] (nil = host).
func (s *solvedRoot) target(i int) *deviceRef {
	if t := s.placement[i]; t != 0 {
		return &deviceRef{s.devices[t-1]}
	}
	return nil
}

// instantiate adapts, offloads and registers one Offcode (no Initialize
// yet) under the owning application session.
func (rt *Runtime) instantiate(app *App, o *odf.ODF, srcPath string, dev *deviceRef, k func(*Handle, error)) {
	if _, dup := rt.byBind[o.BindName]; dup {
		k(nil, fmt.Errorf("%w: %s already deployed", ErrDuplicateBind, o.BindName))
		return
	}
	factory, ok := rt.depot.Factory(o.GUID)
	if !ok {
		k(nil, fmt.Errorf("core: no behaviour factory for %s (GUID %v)", o.BindName, o.GUID))
		return
	}

	finishInstall := func(addr uint64, size, devBytes int) {
		freeDev := func() {
			if devBytes > 0 && dev != nil {
				dev.d.FreeMem(devBytes)
			}
		}
		behaviourAny := factory()
		behaviour, ok := behaviourAny.(Offcode)
		if !ok {
			freeDev()
			k(nil, fmt.Errorf("core: factory for %s returned %T, not core.Offcode", o.BindName, behaviourAny))
			return
		}
		rt.instSeq++
		h := &Handle{
			BindName: o.BindName, GUID: o.GUID, ODF: o,
			behaviour: behaviour, imageAddr: addr, imageSize: size,
			devMemBytes: devBytes, seq: rt.instSeq, srcPath: srcPath,
		}
		if dev != nil {
			h.dev = dev.d
			h.devMemGen = dev.d.MemGeneration()
		}
		node, err := app.res.NewChild("offcode:"+o.BindName, func() error {
			if h.devMemBytes > 0 && h.dev != nil && h.dev.MemGeneration() == h.devMemGen {
				h.dev.FreeMem(h.devMemBytes)
			}
			if h.state == StateStarted {
				h.state = StateStopped
				return h.behaviour.Stop()
			}
			return nil
		})
		if err != nil {
			freeDev()
			k(nil, err)
			return
		}
		h.res = node
		// Book the session's quotas: one Offcode, and the device memory
		// the load took against the session's admission reservation.
		if err := node.Charge(QuotaOffcodes, 1); err != nil {
			node.Close()
			k(nil, err)
			return
		}
		if err := node.Charge(QuotaDeviceMemory, int64(devBytes)); err != nil {
			node.Close()
			k(nil, err)
			return
		}

		// Every Offcode gets its default OOB channel (§3.2).
		if err := rt.setupOOB(h); err != nil {
			node.Close()
			k(nil, err)
			return
		}
		rt.byBind[o.BindName] = h
		rt.byGUID[o.GUID] = h
		app.adopt(h)
		k(h, nil)
	}

	if dev == nil {
		// Host placement: no linking against device firmware.
		finishInstall(0, 0, 0)
		return
	}
	obj, ok := rt.depot.Object(o.GUID)
	if !ok {
		k(nil, fmt.Errorf("core: no object file for %s (GUID %v)", o.BindName, o.GUID))
		return
	}
	loader := rt.loaders[rt.cfg.Loader]
	loader.Load(dev.d, obj, func(addr uint64, size, devBytes int, err error) {
		if err != nil {
			// Whatever the loader had already taken goes straight back.
			if devBytes > 0 {
				dev.d.FreeMem(devBytes)
			}
			k(nil, fmt.Errorf("core: loading %s onto %s: %w", o.BindName, dev.d.Name(), err))
			return
		}
		finishInstall(addr, size, devBytes)
	})
}

// setupOOB builds the Offcode's out-of-band channel between the runtime
// (host) side and the Offcode's placement.
func (rt *Runtime) setupOOB(h *Handle) error {
	appEnd := channel.HostEndpoint(rt.host, "oob:"+h.BindName)
	ch, err := channel.New(rt.eng, rt.bus, channel.OOBConfig(), appEnd)
	if err != nil {
		return err
	}
	var ocEnd *channel.Endpoint
	if h.dev != nil {
		ocEnd = channel.DeviceEndpoint(h.dev, "oob:"+h.BindName+"@"+h.dev.Name())
	} else {
		ocEnd = channel.HostEndpoint(rt.host, "oob:"+h.BindName+"@host")
	}
	if err := ch.Connect(ocEnd); err != nil {
		return err
	}
	h.oobApp = appEnd
	h.oobOC = ocEnd
	if _, err := h.res.NewChild("oob-channel", func() error { ch.Close(); return nil }); err != nil {
		return err
	}
	return nil
}

// initialize runs phase one (Initialize) across all new Offcodes, then
// phase two (Start) — "once all the related Offcodes have been offloaded,
// the StartOffcode method is called".
func (rt *Runtime) initialize(handles []*Handle, i int, k func(error)) {
	if i == len(handles) {
		rt.start(handles, 0, k)
		return
	}
	h := handles[i]
	ctx := &Context{Runtime: rt, Handle: h, Device: h.dev, Host: rt.host, OOB: h.oobOC}
	// Initialization executes on the placement target; charge a small cost.
	run := func(fn func()) {
		if h.dev != nil {
			h.dev.Exec(20_000, fn)
		} else {
			rt.host.NewTask("init:"+h.BindName).Compute(20_000, fn)
		}
	}
	run(func() {
		if err := h.behaviour.Initialize(ctx); err != nil {
			k(fmt.Errorf("core: %s.Initialize: %w", h.BindName, err))
			return
		}
		// Migration: re-instantiated Offcodes get their checkpointed state
		// back before Start, so they resume rather than begin anew.
		if data, ok := rt.pendingRestore[h.BindName]; ok {
			delete(rt.pendingRestore, h.BindName)
			if cp, ok := h.behaviour.(Checkpointer); ok {
				if err := cp.Restore(data); err != nil {
					k(fmt.Errorf("core: %s.Restore: %w", h.BindName, err))
					return
				}
				if rt.tr.On() {
					rt.tr.Instant(obs.CatCore, "core.restore", int64(len(data)))
				}
			}
		}
		h.state = StateInitialized
		rt.initialize(handles, i+1, k)
	})
}

func (rt *Runtime) start(handles []*Handle, i int, k func(error)) {
	if i == len(handles) {
		k(nil)
		return
	}
	h := handles[i]
	run := func(fn func()) {
		if h.dev != nil {
			h.dev.Exec(5_000, fn)
		} else {
			rt.host.NewTask("start:"+h.BindName).Compute(5_000, fn)
		}
	}
	run(func() {
		if err := h.behaviour.Start(); err != nil {
			k(fmt.Errorf("core: %s.Start: %w", h.BindName, err))
			return
		}
		h.state = StateStarted
		rt.start(handles, i+1, k)
	})
}

// StopOffcode stops a running Offcode and releases its resources. Stopping
// a deployment root also forgets it: failover will not resurrect a service
// the application shut down.
func (rt *Runtime) StopOffcode(h *Handle) error {
	if h.pseudo {
		return fmt.Errorf("core: cannot stop pseudo Offcode %s", h.BindName)
	}
	rt.forgetRoot(h.BindName)
	return rt.stopHandle(h)
}

// stopHandle is the teardown shared by StopOffcode, App.Close, commit
// rollback and failover (which keeps the root records so it can redeploy
// them).
func (rt *Runtime) stopHandle(h *Handle) error {
	err := h.res.Close() // closer transitions state and calls Stop
	delete(rt.byBind, h.BindName)
	delete(rt.byGUID, h.GUID)
	if h.app != nil {
		h.app.disown(h)
	}
	return err
}

// Deployments reports how many deployment commits have been made.
func (rt *Runtime) Deployments() uint64 { return rt.deploys }
