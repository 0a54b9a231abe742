package core

import (
	"errors"
	"fmt"

	"hydra/internal/device"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// This file is the mutation side of the deployment spine: the delta
// executor DeployPlan.Commit drives, and the live hot-swap path. A
// deployed graph is no longer a one-shot transaction — App.Replace
// hot-swaps one Offcode under traffic:
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

// MutationResult is the typed outcome of App.Replace. A failed swap has
// already rolled back to the old instance when the callback runs.
type MutationResult struct {
	// Replayed counts messages held during the quiesce window and
	// re-delivered by the post-swap resume.
	Replayed int
	// Started and Finished bracket the swap on the virtual clock.
	Started, Finished sim.Time
}

// deltaExec is the shared execution engine of the deployment spine: it
// instantiates, initializes and starts solved roots, tracking everything
// it creates so a failure unwinds to the pre-mutation graph.
// DeployPlan.Commit and the hot-swap rollback drive it.
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
// over simulated time: it quiesces the root's channels, carries
// checkpointed state across, and rolls back to the old instance on
// failure. The new ODF must carry the same bind name; its placement is
// pinned to the old instance's target so the surviving channel endpoints
// stay valid.
func (a *App) Replace(bind, path string, k func(*MutationResult, error)) {
	rt := a.rt
	res := &MutationResult{Started: rt.eng.Now()}
	done := func(err error) {
		res.Finished = rt.eng.Now()
		if rt.trm.On() {
			rt.trm.Complete(obs.CatMutate, "mutate.apply", res.Started,
				res.Finished-res.Started, 1) // one swap per span
		}
		k(res, err)
	}
	if a.closed {
		done(fmt.Errorf("%w: %s", ErrAppClosed, a.name))
		return
	}
	swapped := func(err error) {
		if err != nil {
			err = fmt.Errorf("core: mutate replace %s: %w", bind, err)
		}
		done(err)
	}
	old, ok := rt.byBind[bind]
	switch {
	case !ok:
		swapped(fmt.Errorf("%w: %s", ErrNotFound, bind))
		return
	case old.pseudo:
		swapped(fmt.Errorf("core: cannot replace pseudo Offcode %s", bind))
		return
	case old.app != a:
		swapped(fmt.Errorf("core: %s is not owned by app %s", bind, a.name))
		return
	case old.state != StateStarted:
		swapped(fmt.Errorf("core: %s is %s, not started", bind, old.state))
		return
	}
	doc, err := rt.depot.LoadODF(path)
	if err != nil {
		swapped(err)
		return
	}
	if doc.BindName != bind {
		swapped(fmt.Errorf("core: replacement ODF %s binds %s, not %s", path, doc.BindName, bind))
		return
	}

	// Quiesce: pause every surviving session channel attached to the
	// instance. Senders keep writing — arrivals are held, credits recycle
	// — and the far side's partial coalesced batches are flushed onto the
	// wire so nothing is parked in an accumulator across the swap.
	attached := old.liveAttachments()
	for _, at := range attached {
		at.end.Pause()
	}
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
	drain(0, func() { a.replaceQuiesced(bind, path, res, old, attached, swapped) })
}

// replaceQuiesced is the back half of Replace, entered once the old
// instance's channels are paused and drained.
func (a *App) replaceQuiesced(bind, path string, res *MutationResult, old *Handle,
	attached []attachedEnd, k func(error)) {
	rt := a.rt
	oldPath := old.srcPath
	pins := map[string]*device.Device{bind: old.dev}

	// Checkpoint the live state and stage it for the replacement (or, on
	// rollback, for the re-instantiated original).
	if cp, ok := old.behaviour.(Checkpointer); ok {
		state := cp.Checkpoint()
		rt.StageRestore(bind, state)
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

	finish := func(rolledBack bool) {
		rt.clearStagedRestore([]string{bind})
		if rt.trm.On() {
			arg := int64(res.Replayed)
			name := "mutate.swap"
			if rolledBack {
				name = "mutate.rollback"
			}
			rt.trm.Complete(obs.CatMutate, name, res.Started, rt.eng.Now()-res.Started, arg)
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
		s, err := rt.solveRoot(oldPath, newPlacedSet(), pins)
		if err != nil {
			finish(true)
			k(errors.Join(cause, fmt.Errorf("core: rollback re-solve %s: %w", bind, err)))
			return
		}
		rb.deployRoot(s, func(err error) {
			if err != nil {
				rb.rollback()
				finish(true)
				k(errors.Join(cause, fmt.Errorf("core: rollback redeploy %s: %w", bind, err)))
				return
			}
			oh := rt.byBind[bind]
			resume(oh)
			finish(true)
			k(cause)
		})
	}

	// Stop the old instance. Session channels survive (they are owned by
	// the session's resource subtree, not the handle); the handle's OOB
	// channel and device memory go with it.
	if err := rt.stopHandle(old); err != nil {
		// The old instance is already gone; restoring it is the only path
		// back to the pre-mutation graph.
		rollback(&deltaExec{rt: rt, app: a}, fmt.Errorf("core: stop %s: %w", bind, err))
		return
	}

	x := &deltaExec{rt: rt, app: a}
	s, err := rt.solveRoot(path, newPlacedSet(), pins)
	if err != nil {
		rollback(x, err)
		return
	}
	x.deployRoot(s, func(err error) {
		if err != nil {
			rollback(x, err)
			return
		}
		nh, ok := rt.byBind[bind]
		if !ok {
			rollback(x, fmt.Errorf("core: replacement %s vanished during swap", bind))
			return
		}
		rt.rerecordRoot(bind, path)
		resume(nh)
		finish(false)
		k(nil)
	})
}
