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
// Steps 1–3 are pure — no hardware is touched — and are what
// DeployPlan.Solve (plan.go) exposes as a placement preview; steps 4–6
// take simulated time and run under DeployPlan.Commit with rollback.

// deployOne plans and commits a single root under the session, adapting
// the typed Deployment result to a (*Handle, error) callback — the form
// failover's sequential redeploy loop drives.
func (a *App) deployOne(path string, k func(*Handle, error)) {
	plan := a.Plan()
	if err := plan.AddRoot(path); err != nil {
		k(nil, err)
		return
	}
	plan.Commit(func(dep *Deployment, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		k(dep.Handles[plan.roots[0].bind], nil)
	})
}

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
				if _, err := rt.lookupImportPlaced(imp, placed); err != nil {
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

// placedSet tracks the Offcodes earlier roots of the same plan will have
// deployed, so later roots solve against the full planned state without
// any hardware having been touched yet. Indexed by bind name and by GUID,
// mirroring how deployed handles resolve imports.
type placedSet struct {
	byBind map[string]placedInfo
	byGUID map[guid.GUID]placedInfo
}

type placedInfo struct {
	bind string
	dev  *device.Device // nil = host placement
	path string
}

func newPlacedSet() *placedSet {
	return &placedSet{
		byBind: make(map[string]placedInfo),
		byGUID: make(map[guid.GUID]placedInfo),
	}
}

// lookup resolves an import reference against the planned set, GUID first
// like Runtime.lookupImport.
func (ps *placedSet) lookup(imp odf.Reference) (placedInfo, bool) {
	if imp.GUID.IsValid() {
		if info, ok := ps.byGUID[imp.GUID]; ok {
			return info, true
		}
	}
	if imp.BindName != "" {
		if info, ok := ps.byBind[imp.BindName]; ok {
			return info, true
		}
	}
	return placedInfo{}, false
}

// lookupImportPlaced resolves an import against deployed Offcodes first,
// then against the plan's already-placed set.
func (rt *Runtime) lookupImportPlaced(imp odf.Reference, placed *placedSet) (*Handle, error) {
	if h, err := rt.lookupImport(imp); err == nil {
		return h, nil
	}
	if placed != nil {
		if _, ok := placed.lookup(imp); ok {
			return nil, nil // planned but not yet instantiated: no handle yet
		}
	}
	return nil, fmt.Errorf("unresolved import %s (GUID %v)", imp.BindName, imp.GUID)
}

func (rt *Runtime) lookupImport(imp odf.Reference) (*Handle, error) {
	if imp.GUID.IsValid() {
		if h, ok := rt.byGUID[imp.GUID]; ok {
			return h, nil
		}
	}
	if imp.BindName != "" {
		if h, ok := rt.byBind[imp.BindName]; ok {
			return h, nil
		}
	}
	return nil, fmt.Errorf("unresolved import %s (GUID %v)", imp.BindName, imp.GUID)
}

// importInSet reports whether an import (possibly GUID-only) resolves to a
// member of the new deployment set.
func importInSet(imp odf.Reference, newSet map[string]bool) bool {
	if imp.BindName != "" {
		return newSet[imp.BindName]
	}
	return false
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

// placementPin forces one bind name of a solved root onto a fixed target
// (nil dev = host). Hot-swap uses it: the replacement must land exactly
// where the instance it replaces ran, because the surviving channel
// endpoints are bound to that execution context.
type placementPin struct {
	dev *device.Device
}

// solveRoot runs steps 1–3 for the root at path: closure, layout graph,
// resolution. It touches no hardware and consumes no simulated time.
// placed carries the state earlier plan roots will have established and is
// extended with this root's outcome.
func (rt *Runtime) solveRoot(path string, placed *placedSet) (*solvedRoot, error) {
	return rt.solveRootPinned(path, placed, nil)
}

// solveRootPinned is solveRoot with per-bind placement pins applied on top
// of the ODF constraint graph.
func (rt *Runtime) solveRootPinned(path string, placed *placedSet, pinTo map[string]placementPin) (*solvedRoot, error) {
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
		peer string         // bind name, for error messages
		dev  *device.Device // nil = host placement
	}
	var pins []pinned
	newSet := make(map[string]bool)
	for _, p := range order {
		o := docs[p]
		_, deployed := rt.byBind[o.BindName]
		_, planned := placed.byBind[o.BindName]
		if !deployed && !planned {
			newSet[o.BindName] = true
		}
	}
	var srcPaths []string
	for _, p := range order {
		o := docs[p]
		if !newSet[o.BindName] {
			out.reused = append(out.reused, o.BindName)
			continue
		}
		filtered := *o
		filtered.Imports = nil
		for _, imp := range o.Imports {
			if (imp.BindName != "" && newSet[imp.BindName]) || importInSet(imp, newSet) {
				filtered.Imports = append(filtered.Imports, imp)
				continue
			}
			// Peer exists already (deployed) or will exist (planned).
			if h, err := rt.lookupImport(imp); err == nil {
				pins = append(pins, pinned{node: len(out.odfs), imp: imp, peer: h.BindName, dev: h.Device()})
				continue
			}
			if info, ok := placed.lookup(imp); ok {
				pins = append(pins, pinned{node: len(out.odfs), imp: imp, peer: info.bind, dev: info.dev})
				continue
			}
			return nil, fmt.Errorf("core: %s: unresolved import %s (GUID %v)", o.BindName, imp.BindName, imp.GUID)
		}
		out.odfs = append(out.odfs, &filtered)
		srcPaths = append(srcPaths, p)
	}
	out.paths = srcPaths
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
	graph, err := layout.FromODFs(out.odfs, targets, rt.cfg.Prices)
	if err != nil {
		return nil, err
	}
	// Apply constraints against existing peers by narrowing the importer's
	// compatibility vector.
	for _, pin := range pins {
		peerTarget := 0
		if pin.dev != nil {
			for i, dev := range avail {
				if dev == pin.dev {
					peerTarget = i + 1
					break
				}
			}
			if peerTarget == 0 {
				return nil, fmt.Errorf("core: %s: peer %s is placed on failed device %s",
					out.odfs[pin.node].BindName, pin.peer, pin.dev.Name())
			}
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
		ok := false
		for _, c := range node.Compat {
			ok = ok || c
		}
		if !ok {
			return nil, fmt.Errorf("core: %s: constraint %s against deployed peer %s is unsatisfiable",
				node.BindName, pin.imp.Type, pin.peer)
		}
	}
	// Placement pins narrow a node to one fixed target on top of whatever
	// the ODF constraints allow.
	for i, o := range out.odfs {
		pin, pinned := pinTo[o.BindName]
		if !pinned {
			continue
		}
		target := 0
		if pin.dev != nil {
			for j, dev := range avail {
				if dev == pin.dev {
					target = j + 1
					break
				}
			}
			if target == 0 {
				return nil, fmt.Errorf("core: %s: pinned device %s is not an available target",
					o.BindName, pin.dev.Name())
			}
		}
		node := &graph.Nodes[i]
		for t := range node.Compat {
			node.Compat[t] = node.Compat[t] && t == target
		}
		if !node.Compat[target] {
			return nil, fmt.Errorf("core: %s: replacement cannot keep placement %s",
				o.BindName, targetName(pin.dev))
		}
	}
	var placement layout.Placement
	switch rt.cfg.Resolver {
	case ResolveILP:
		placement, _, err = graph.SolveILP(rt.cfg.Objective)
	default:
		placement, err = graph.SolveGreedy(rt.cfg.Objective)
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
		var dev *device.Device
		if t := placement[i]; t != 0 {
			dev = avail[t-1]
		}
		info := placedInfo{bind: o.BindName, dev: dev, path: out.paths[i]}
		placed.byBind[o.BindName] = info
		placed.byGUID[o.GUID] = info
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
