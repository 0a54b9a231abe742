package core

import (
	"fmt"

	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// This file is the runtime's self-healing path: a heartbeat health monitor
// over the registered devices, and the Offcode migration that follows a
// detected failure.
//
// Detection: per device, the monitor registers a heartbeat pseudo Offcode
// (hydra.Health.<device>) whose only job is to answer probes. Every
// Heartbeat the monitor submits a probe to the device's firmware queue;
// healthy firmware answers within microseconds, while crashed firmware
// silently drops it (device.Exec's failure semantics). A device
// silent for longer than two heartbeats is declared failed.
//
// Recovery: failover checkpoints every Offcode implementing Checkpointer,
// stops all deployed Offcodes in reverse instantiation order (importers
// before their imports — the same reverse-dependency discipline
// resource.Node.Close applies within one Offcode), re-solves the layout
// over the surviving devices, redeploys every recorded root, and restores
// the checkpoints between Initialize and Start. The whole sequence runs on
// the virtual clock, so for a fixed seed and fault schedule a recovery is
// bit-identical across runs.

// Monitor timing: the probe interval, how long a device may stay silent
// before it is declared failed, and the firmware cost of answering one
// probe.
const (
	Heartbeat        = 10 * sim.Millisecond
	heartbeatTimeout = 2 * Heartbeat
	probeCycles      = 2000
)

// Recovery records one device failure handled by the runtime.
type Recovery struct {
	// Device is the failed device's name.
	Device string
	// DetectedAt is when the monitor declared the device failed.
	DetectedAt sim.Time
	// MigrationStart / MigrationEnd bracket the stop → re-layout →
	// redeploy → restore sequence. MigrationEnd is meaningful only once
	// Complete reports true: a migration can legitimately finish at virtual
	// time zero, so the timestamp itself is not an in-flight sentinel.
	MigrationStart sim.Time
	MigrationEnd   sim.Time

	// done records completion explicitly (set by the failover finisher and
	// by abortMigration).
	done bool
	// Stopped lists the Offcodes stopped, in stop order (reverse
	// instantiation order).
	Stopped []string
	// Restored lists the Offcodes whose state was checkpointed for
	// restoration into their re-instantiated successors.
	Restored []string
	// Err is non-nil when re-deployment failed (e.g. no surviving target
	// satisfies a placement constraint).
	Err error
}

// Complete reports whether the migration finished.
func (r *Recovery) Complete() bool { return r.done }

// MigrationTime reports how long the migration took (zero while in flight).
func (r *Recovery) MigrationTime() sim.Time {
	if !r.Complete() {
		return 0
	}
	return r.MigrationEnd - r.MigrationStart
}

// Recoveries returns the runtime's recovery history, in detection order.
func (rt *Runtime) Recoveries() []*Recovery {
	return append([]*Recovery(nil), rt.recoveries...)
}

// Monitor is the runtime health monitor started by StartMonitor.
type Monitor struct {
	rt     *Runtime
	probes []*deviceProbe
}

// deviceProbe tracks heartbeat state for one device.
type deviceProbe struct {
	dev      *device.Device
	lastPong sim.Time
	failed   bool
}

// StartMonitor begins heartbeat monitoring of every registered device and
// enables automatic failover. Devices must already be registered. Calling
// it again returns the existing monitor.
func (rt *Runtime) StartMonitor() *Monitor {
	if rt.monitor != nil {
		return rt.monitor
	}
	m := &Monitor{rt: rt}
	now := rt.eng.Now()
	for i, d := range rt.devices {
		m.probes = append(m.probes, &deviceProbe{dev: d, lastPong: now})
		// The heartbeat answerer is a runtime-provided pseudo Offcode
		// living on the device.
		bind := "hydra.Health." + d.Name()
		g := guid.IIDHealthMonitor + guid.GUID(i)
		h := &Handle{
			BindName: bind, GUID: g, state: StateStarted, pseudo: true,
			dev: d, res: rt.root.MustChild(bind, nil),
		}
		rt.byBind[bind] = h
		rt.byGUID[g] = h
	}
	rt.eng.Tick(Heartbeat, 0, m.tick)
	rt.monitor = m
	return m
}

// tick runs once per heartbeat: it checks silence thresholds, triggers
// failover for newly failed devices, notices restored devices rejoining,
// and launches the next round of probes.
func (m *Monitor) tick() {
	now := m.rt.eng.Now()
	for _, p := range m.probes {
		if p.failed {
			if p.dev.Healthy() {
				// The device came back (power-on reset). It rejoins the
				// target pool; the next re-layout may use it.
				p.failed = false
				p.lastPong = now
			}
			continue
		}
		if now-p.lastPong > heartbeatTimeout {
			if m.rt.migrating {
				// Overlapping failure. A healthy migration settles in far
				// less simulated time than the timeout (stops are
				// synchronous, loads take microseconds), so one still in
				// flight after a whole timeout is stalled — its redeploy
				// landed on a device that died mid-load and dropped the
				// continuation.
				// Abort it (its checkpoints stay pending) and recover over
				// the currently healthy set; a younger migration instead
				// gets until the next tick to finish.
				rec := m.rt.activeRec
				if rec == nil || now-rec.MigrationStart <= heartbeatTimeout {
					continue
				}
				m.rt.abortMigration(fmt.Errorf(
					"core: migration interrupted: device %s failed", p.dev.Name()))
			}
			p.failed = true
			m.rt.failover(p.dev, now)
			continue
		}
		probe := p
		probe.dev.Exec(probeCycles, func() {
			probe.lastPong = m.rt.eng.Now()
		})
	}
}

// failover migrates every deployed Offcode off the failed device:
// checkpoint → stop all (reverse instantiation order) → redeploy each
// recorded root over the surviving targets → restore checkpoints.
func (rt *Runtime) failover(failed *device.Device, detected sim.Time) *Recovery {
	rec := &Recovery{
		Device:         failed.Name(),
		DetectedAt:     detected,
		MigrationStart: rt.eng.Now(),
	}
	rt.recoveries = append(rt.recoveries, rec)
	rt.migrating = true
	rt.activeRec = rec

	finish := func(err error) {
		if rec.Complete() {
			return // aborted by the monitor; a newer recovery owns the state
		}
		if err != nil && rec.Err == nil {
			rec.Err = err
		}
		rec.MigrationEnd = rt.eng.Now()
		if rt.tr.On() {
			rt.tr.Complete(obs.CatCore, "core.failover", rec.MigrationStart,
				rec.MigrationEnd-rec.MigrationStart, int64(len(rec.Restored)))
		}
		rec.done = true
		rt.pendingRestore = nil
		rt.migrating = false
		rt.activeRec = nil
	}

	// Snapshot the roots before stopping anything: stopHandle (unlike
	// StopOffcode) leaves the records in place for redeployment.
	roots := append([]rootRecord(nil), rt.roots...)

	// Checkpoint whatever can carry state across the migration. Offcodes on
	// the failed device checkpoint too: their behaviour object is host-side
	// bookkeeping, and its last coherent state is exactly what a
	// production runtime would have replicated out before the crash.
	// Checkpoints left pending by an aborted migration win over fresh ones:
	// their Offcodes never restarted, so the pending state is the last
	// coherent snapshot.
	handles := rt.deployedHandles()
	states := rt.pendingRestore
	if states == nil {
		states = make(map[string][]byte)
	}
	for _, h := range handles {
		if _, carried := states[h.BindName]; carried {
			rec.Restored = append(rec.Restored, h.BindName)
			continue
		}
		if cp, ok := h.behaviour.(Checkpointer); ok {
			states[h.BindName] = cp.Checkpoint()
			rec.Restored = append(rec.Restored, h.BindName)
			if rt.tr.On() {
				rt.tr.Instant(obs.CatCore, "core.checkpoint", int64(len(states[h.BindName])))
			}
		}
	}

	// Stop survivors and victims alike, importers first.
	for i := len(handles) - 1; i >= 0; i-- {
		rec.Stopped = append(rec.Stopped, handles[i].BindName)
		if err := rt.stopHandle(handles[i]); err != nil && rec.Err == nil {
			rec.Err = fmt.Errorf("core: failover stop %s: %w", handles[i].BindName, err)
		}
	}

	// Redeploy sequentially — each root under the application session that
	// owned it — re-solving the layout over the healthy devices while
	// initialize() feeds the checkpoints back in.
	rt.pendingRestore = states
	var redeploy func(i int)
	redeploy = func(i int) {
		if i == len(roots) {
			finish(nil)
			return
		}
		owner := roots[i].app
		if owner == nil || owner.closed {
			owner = rt.defaultApp
		}
		owner.deployOne(roots[i].path, func(_ *Handle, err error) {
			if err != nil {
				finish(fmt.Errorf("core: failover redeploy %s: %w", roots[i].path, err))
				return
			}
			redeploy(i + 1)
		})
	}
	redeploy(0)
	return rec
}

// StageRestore stages checkpointed Offcode state for the next deployment
// of bind on this runtime: the deployment pipeline feeds it to the new
// instance's Checkpointer.Restore between Initialize and Start, exactly as
// local failover does. Cluster-level coordinators use this to migrate an
// Offcode checkpointed on one host into a redeployment on another.
func (rt *Runtime) StageRestore(bind string, state []byte) {
	if rt.pendingRestore == nil {
		rt.pendingRestore = make(map[string][]byte)
	}
	rt.pendingRestore[bind] = state
}

// abortMigration gives up on a stalled in-flight migration: the recovery is
// marked failed, but its unrestored checkpoints stay in pendingRestore so
// the next failover carries the state forward. The stalled Deploy
// continuation is dead (its callbacks were dropped by the crashed device),
// so abandoning it leaks nothing.
func (rt *Runtime) abortMigration(err error) {
	if rec := rt.activeRec; rec != nil && !rec.Complete() {
		rec.Err = err
		rec.MigrationEnd = rt.eng.Now()
		rec.done = true
	}
	rt.migrating = false
	rt.activeRec = nil
}
