package core

import (
	"errors"
	"fmt"

	"hydra/internal/obs"
	"hydra/internal/sim"
)

// This file is the mutation side of the deployment spine: the delta
// executor shared by DeployPlan.Commit and App.Mutate, and the live
// hot-swap path. A deployed graph is no longer a one-shot transaction —
// App.Mutate applies a list of deltas (deploy a new root, replace a live
// root with a new ODF, remove a root) atomically per delta, and
// App.Replace hot-swaps one Offcode under traffic:
//
//	pause the attached channel endpoints (senders keep flowing; arrivals
//	are held) → drain coalesced batches → checkpoint → stop the old
//	instance → re-solve pinned to the old placement → instantiate,
//	restore, start the replacement → reattach the surviving channels →
//	resume (replay held messages, in order).
//
// On any mid-swap failure the engine rolls back to the pre-mutation
// graph: everything the swap created is stopped and the old ODF is
// re-instantiated on its old placement with the staged checkpoint fed
// back in, so the service resumes as if the swap was never attempted.

// Delta is one mutation of a session's deployed graph. The concrete
// types are DeployDelta and ReplaceDelta.
type Delta interface {
	deltaLabel() string
}

// DeployDelta deploys a new root ODF, exactly like a plan root.
type DeployDelta struct {
	Path string
}

// ReplaceDelta hot-swaps the live root deployed as Bind with the ODF at
// Path. The new ODF must carry the same bind name; its placement is
// pinned to the old instance's target so the surviving channel endpoints
// stay valid. Checkpointed state carries across the swap.
type ReplaceDelta struct {
	Bind string
	Path string
}

func (d DeployDelta) deltaLabel() string  { return "deploy " + d.Path }
func (d ReplaceDelta) deltaLabel() string { return "replace " + d.Bind }

// MutationResult is the typed outcome of App.Mutate / App.Replace.
type MutationResult struct {
	// App is the owning session.
	App *App
	// Deployed maps each DeployDelta root bind to its new handle.
	Deployed map[string]*Handle
	// Swapped maps each ReplaceDelta bind to its replacement handle.
	Swapped map[string]*Handle
	// QuiescedChannels counts channel endpoints paused across the swaps.
	QuiescedChannels int
	// Replayed counts messages held during quiesce windows and re-delivered
	// by the post-swap resume.
	Replayed int
	// RolledBack reports that a delta failed and the pre-mutation graph was
	// restored (the error the callback receives says which delta).
	RolledBack bool
	// Started and Finished bracket the mutation on the virtual clock.
	Started, Finished sim.Time
}

// deltaExec is the shared execution engine of the deployment spine: it
// instantiates, initializes and starts solved roots, tracking everything
// it creates so a failure unwinds to the pre-mutation graph. Both
// DeployPlan.Commit and App.Mutate drive it.
type deltaExec struct {
	rt  *Runtime
	app *App
	// created lists every handle this execution instantiated, across all
	// roots, in order; rollback stops them in reverse.
	created []*Handle
	// recorded lists binds whose root record this execution added (not
	// merely re-confirmed); rollback forgets exactly those.
	recorded []string
}

// rollback unwinds everything the execution created, in reverse.
func (x *deltaExec) rollback() {
	for i := len(x.created) - 1; i >= 0; i-- {
		x.rt.stopHandle(x.created[i])
	}
	x.created = nil
	for _, b := range x.recorded {
		x.rt.forgetRoot(b)
	}
	x.recorded = nil
}

// deployRoot runs the back half of the pipeline for one solved root:
// offload every new Offcode, then Initialize and Start them as one group
// (staged restores feed in between the phases). Failures are reported
// raw; the caller decides the rollback scope.
func (x *deltaExec) deployRoot(s *solvedRoot, k func(error)) {
	if len(s.odfs) == 0 {
		k(nil) // fully reused root
		return
	}
	rootHandles := make([]*Handle, 0, len(s.odfs))
	var offload func(i int)
	offload = func(i int) {
		if i == len(s.odfs) {
			x.rt.initialize(rootHandles, 0, k)
			return
		}
		x.rt.instantiate(x.app, s.odfs[i], s.paths[i], s.target(i), func(h *Handle, err error) {
			if err != nil {
				k(err)
				return
			}
			x.created = append(x.created, h)
			rootHandles = append(rootHandles, h)
			offload(i + 1)
		})
	}
	offload(0)
}

// record books the root record for a committed root, remembering whether
// this execution added it.
func (x *deltaExec) record(s *solvedRoot) {
	if x.rt.recordRoot(s.path, s.bind, x.app) {
		x.recorded = append(x.recorded, s.bind)
	}
}

// clearStagedRestore drops staged checkpoint state for the given binds
// once a deployment settles: a consumed restore is already deleted by
// initialize, and whatever remains (a reused root, a bind whose behaviour
// is not a Checkpointer, a failed commit) must not leak into a later,
// unrelated deployment of the same bind name.
func (rt *Runtime) clearStagedRestore(binds []string) {
	for _, b := range binds {
		delete(rt.pendingRestore, b)
	}
}

// Replace hot-swaps the live root deployed as bind with the ODF at path,
// quiescing its channels, carrying checkpointed state across, and rolling
// back to the old instance on failure. It is shorthand for a single-delta
// Mutate.
func (a *App) Replace(bind, path string, k func(*MutationResult, error)) {
	a.Mutate([]Delta{ReplaceDelta{Bind: bind, Path: path}}, k)
}

// Mutate applies deltas to the session's deployed graph in order, over
// simulated time. Each delta is atomic: a failed replace rolls back to
// the pre-swap instance, a failed deploy unwinds its own closure, and in
// every failure case the mutation stops at the failed delta with
// RolledBack set — earlier deltas in the list stay applied (they already
// committed), exactly like successive plan commits.
func (a *App) Mutate(deltas []Delta, k func(*MutationResult, error)) {
	rt := a.rt
	res := &MutationResult{
		App:      a,
		Deployed: make(map[string]*Handle),
		Swapped:  make(map[string]*Handle),
		Started:  rt.eng.Now(),
	}
	done := func(err error) {
		res.Finished = rt.eng.Now()
		if rt.trm.On() {
			rt.trm.Complete(obs.CatMutate, "mutate.apply", res.Started,
				res.Finished-res.Started, int64(len(deltas)))
		}
		k(res, err)
	}
	if a.closed {
		done(fmt.Errorf("%w: %s", ErrAppClosed, a.name))
		return
	}
	var apply func(i int)
	apply = func(i int) {
		if i == len(deltas) {
			done(nil)
			return
		}
		next := func(err error) {
			if err != nil {
				res.RolledBack = true
				done(fmt.Errorf("core: mutate %s: %w", deltas[i].deltaLabel(), err))
				return
			}
			apply(i + 1)
		}
		switch d := deltas[i].(type) {
		case DeployDelta:
			a.applyDeploy(d, res, next)
		case ReplaceDelta:
			a.applyReplace(d, res, next)
		default:
			next(fmt.Errorf("core: unknown delta %T", deltas[i]))
		}
	}
	apply(0)
}

// applyDeploy deploys one new root — a single-root plan commit reusing
// the same delta executor.
func (a *App) applyDeploy(d DeployDelta, res *MutationResult, k func(error)) {
	plan := a.Plan()
	if err := plan.AddRoot(d.Path); err != nil {
		k(err)
		return
	}
	bind := plan.roots[0].bind
	plan.Commit(func(dep *Deployment, err error) {
		if err != nil {
			k(err)
			return
		}
		res.Deployed[bind] = dep.Handles[bind]
		if a.rt.trm.On() {
			a.rt.trm.Instant(obs.CatMutate, "mutate.deploy", int64(len(dep.Created)))
		}
		k(nil)
	})
}

// applyReplace is the hot-swap: quiesce → checkpoint → stop → re-solve
// pinned → instantiate/restore/start → reattach → replay; rollback
// re-establishes the old instance on any failure.
func (a *App) applyReplace(d ReplaceDelta, res *MutationResult, k func(error)) {
	rt := a.rt
	old, ok := rt.byBind[d.Bind]
	switch {
	case !ok:
		k(fmt.Errorf("%w: %s", ErrNotFound, d.Bind))
		return
	case old.pseudo:
		k(fmt.Errorf("core: cannot replace pseudo Offcode %s", d.Bind))
		return
	case old.app != a:
		k(fmt.Errorf("core: %s is not owned by app %s", d.Bind, a.name))
		return
	case old.state != StateStarted:
		k(fmt.Errorf("core: %s is %s, not started", d.Bind, old.state))
		return
	}
	doc, err := rt.depot.LoadODF(d.Path)
	if err != nil {
		k(err)
		return
	}
	if doc.BindName != d.Bind {
		k(fmt.Errorf("core: replacement ODF %s binds %s, not %s", d.Path, doc.BindName, d.Bind))
		return
	}

	swapStart := rt.eng.Now()

	// Quiesce: pause every surviving session channel attached to the
	// instance. Senders keep writing — arrivals are held, credits recycle
	// — and the far side's partial coalesced batches are flushed onto the
	// wire so nothing is parked in an accumulator across the swap.
	attached := old.liveAttachments()
	for _, at := range attached {
		at.end.Pause()
	}
	res.QuiescedChannels += len(attached)
	if rt.trm.On() {
		rt.trm.Instant(obs.CatMutate, "mutate.quiesce", int64(len(attached)))
	}

	// Drain: handler invocations already dispatched toward the old
	// instance must finish before the checkpoint, or their effects would
	// vanish in the swap.
	var drain func(i int, k func())
	drain = func(i int, k func()) {
		if i == len(attached) {
			k()
			return
		}
		attached[i].end.Drain(func() { drain(i+1, k) })
	}
	drain(0, func() { a.replaceQuiesced(d, res, old, attached, swapStart, k) })
}

// replaceQuiesced is the back half of applyReplace, entered once the old
// instance's channels are paused and drained.
func (a *App) replaceQuiesced(d ReplaceDelta, res *MutationResult, old *Handle,
	attached []attachedEnd, swapStart sim.Time, k func(error)) {
	rt := a.rt
	oldPath, oldDev := old.srcPath, old.dev
	pins := map[string]placementPin{d.Bind: {dev: oldDev}}

	// Checkpoint the live state and stage it for the replacement (or, on
	// rollback, for the re-instantiated original).
	if cp, ok := old.behaviour.(Checkpointer); ok {
		state := cp.Checkpoint()
		rt.StageRestore(d.Bind, state)
		if rt.tr.On() {
			rt.tr.Instant(obs.CatCore, "core.checkpoint", int64(len(state)))
		}
	}

	// resume hands the quiesced channels to their new owner: reattach the
	// surviving endpoints to nh, re-fire the channel notifications so the
	// new behaviour installs its handlers, then replay the held messages
	// through the normal delivery path.
	resume := func(nh *Handle) {
		nh.attached = append(nh.attached, attached...)
		for _, at := range attached {
			notifyOffcodeChannel(nh, at.end)
		}
		for _, at := range attached {
			res.Replayed += at.end.Resume()
		}
	}

	finish := func(nh *Handle, rolledBack bool) {
		rt.clearStagedRestore([]string{d.Bind})
		if rt.trm.On() {
			arg := int64(res.Replayed)
			name := "mutate.swap"
			if rolledBack {
				name = "mutate.rollback"
			}
			rt.trm.Complete(obs.CatMutate, name, swapStart, rt.eng.Now()-swapStart, arg)
		}
	}

	// rollback re-establishes the old ODF on its old placement with the
	// staged checkpoint fed back in, then resumes the channels. A rollback
	// that itself fails leaves the endpoints paused — held messages are
	// surfaced as Undelivered when the channels close — and reports both
	// errors.
	rollback := func(x *deltaExec, cause error) {
		x.rollback()
		rb := &deltaExec{rt: rt, app: a}
		s, err := rt.solveRootPinned(oldPath, newPlacedSet(), pins)
		if err != nil {
			finish(nil, true)
			k(errors.Join(cause, fmt.Errorf("core: rollback re-solve %s: %w", d.Bind, err)))
			return
		}
		rb.deployRoot(s, func(err error) {
			if err != nil {
				rb.rollback()
				finish(nil, true)
				k(errors.Join(cause, fmt.Errorf("core: rollback redeploy %s: %w", d.Bind, err)))
				return
			}
			oh := rt.byBind[d.Bind]
			resume(oh)
			finish(oh, true)
			k(cause)
		})
	}

	// Stop the old instance. Session channels survive (they are owned by
	// the session's resource subtree, not the handle); the handle's OOB
	// channel and device memory go with it.
	if err := rt.stopHandle(old); err != nil {
		// The old instance is already gone; restoring it is the only path
		// back to the pre-mutation graph.
		rollback(&deltaExec{rt: rt, app: a}, fmt.Errorf("core: stop %s: %w", d.Bind, err))
		return
	}

	x := &deltaExec{rt: rt, app: a}
	s, err := rt.solveRootPinned(d.Path, newPlacedSet(), pins)
	if err != nil {
		rollback(x, err)
		return
	}
	x.deployRoot(s, func(err error) {
		if err != nil {
			rollback(x, err)
			return
		}
		nh, ok := rt.byBind[d.Bind]
		if !ok {
			rollback(x, fmt.Errorf("core: replacement %s vanished during swap", d.Bind))
			return
		}
		rt.rerecordRoot(d.Bind, d.Path)
		resume(nh)
		res.Swapped[d.Bind] = nh
		finish(nh, false)
		k(nil)
	})
}
