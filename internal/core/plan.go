package core

import (
	"fmt"

	"hydra/internal/obs"
	"hydra/internal/sim"
)

// DeployPlan is a transactional deployment: roots accumulate with
// AddRoot, and Commit solves their placement and deploys everything
// atomically — on a partial failure every Offcode instantiated and every
// ring pinned by the plan is rolled back, leaving the host memory ledger
// and the device Offcode population exactly at their pre-plan values.
type DeployPlan struct {
	app       *App
	roots     []planRoot
	committed bool
}

type planRoot struct {
	path string
	bind string
}

// Plan starts an empty deployment plan for the session.
func (a *App) Plan() *DeployPlan {
	return &DeployPlan{app: a}
}

// AddRoot appends the ODF at path as a deployment root. The root's bind
// name must be unique: a bind already deployed from a *different* ODF, or
// already present in this plan, is rejected with ErrDuplicateBind — the
// silent shadowing the callback pipeline allowed. Re-adding an ODF that is
// already deployed from the same path reuses the running instance (the
// paper's component reuse).
func (p *DeployPlan) AddRoot(path string) error {
	if p.committed {
		return fmt.Errorf("core: plan already committed")
	}
	if p.app.closed {
		return fmt.Errorf("%w: %s", ErrAppClosed, p.app.name)
	}
	doc, err := p.app.rt.depot.LoadODF(path)
	if err != nil {
		return err
	}
	for _, r := range p.roots {
		if r.bind == doc.BindName {
			return fmt.Errorf("%w: %s already a root of this plan (from %s)",
				ErrDuplicateBind, doc.BindName, r.path)
		}
	}
	if existing, ok := p.app.rt.byBind[doc.BindName]; ok {
		if existing.Pseudo() || existing.srcPath != path {
			from := existing.srcPath
			if existing.Pseudo() {
				from = "the runtime (pseudo Offcode)"
			}
			return fmt.Errorf("%w: %s is already deployed from %s",
				ErrDuplicateBind, doc.BindName, from)
		}
	}
	p.roots = append(p.roots, planRoot{path: path, bind: doc.BindName})
	return nil
}

// Deployment is the typed result of a Commit.
type Deployment struct {
	// App is the owning session.
	App *App
	// Handles maps each root bind name to its (new or reused) handle.
	// Empty when the commit failed: the rollback revoked every handle.
	Handles map[string]*Handle
	// Created lists every Offcode the commit instantiated — roots plus
	// closure members, in instantiation order — so a higher-level
	// transaction (a cluster commit spanning several runtimes) can unwind
	// this deployment by stopping them in reverse. Empty on failure: the
	// plan's own rollback already stopped them.
	Created []*Handle
	// Started and Finished bracket the commit on the virtual clock.
	Started, Finished sim.Time
}

// Commit executes the plan: every root's new Offcodes are offloaded,
// initialized and started in dependency order, over simulated time. The
// commit is atomic — if any instantiate, Initialize or Start fails, every
// Offcode the plan created is stopped and every ring it pinned is
// released, in reverse order, before the error is delivered — so a failed
// Commit leaves hostos.LiveBytes and the runtime's Offcode population at
// their pre-plan values. On success k receives the typed Deployment.
func (p *DeployPlan) Commit(k func(*Deployment, error)) {
	rt := p.app.rt
	dep := &Deployment{
		App:     p.app,
		Handles: make(map[string]*Handle),
		Started: rt.eng.Now(),
	}
	fail := func(err error) {
		dep.Handles = make(map[string]*Handle)
		dep.Created = nil
		dep.Finished = rt.eng.Now()
		if rt.tr.On() {
			rt.tr.Complete(obs.CatCore, "core.deploy", dep.Started,
				dep.Finished-dep.Started, int64(len(dep.Created)))
		}
		k(dep, err)
	}
	if p.committed {
		fail(fmt.Errorf("core: plan already committed"))
		return
	}
	p.committed = true
	if p.app.closed {
		fail(fmt.Errorf("%w: %s", ErrAppClosed, p.app.name))
		return
	}
	rt.deploys++

	// Steps 1–3 (pure) for every root in order, threading the planned
	// state so later roots see earlier ones as placed. The placement
	// reflects device health at commit time.
	//
	// covered is every bind this plan covers — new Offcodes and reused
	// instances alike. Once the commit settles, staged restore state for
	// these binds is cleared: whatever initialize did not consume (a
	// reused root, a non-Checkpointer behaviour, a failed commit) must not
	// silently feed stale checkpoint bytes into a later, unrelated
	// deployment of the same bind name.
	placed := newPlacedSet()
	solved := make([]*solvedRoot, 0, len(p.roots))
	var covered []string
	var newCount int64
	for _, r := range p.roots {
		s, err := rt.solveRoot(r.path, placed, nil)
		if err != nil {
			fail(fmt.Errorf("core: root %s: %w", r.bind, err))
			return
		}
		solved = append(solved, s)
		for _, o := range s.odfs {
			covered = append(covered, o.BindName)
		}
		covered = append(covered, s.reused...)
		newCount += int64(len(s.odfs))
	}

	// Admission against the session's Offcode quota happens before any
	// hardware is touched: an over-quota plan is rejected wholesale. The
	// probe charge validates the whole plan at once; each instantiated
	// Offcode books its own unit afterwards.
	if err := p.app.res.Charge(QuotaOffcodes, newCount); err != nil {
		fail(fmt.Errorf("core: plan needs %d offcodes: %w", newCount, err))
		return
	}
	p.app.res.Release(QuotaOffcodes, newCount)

	// The delta executor tracks every handle the plan instantiates and
	// every root record it adds, for whole-plan rollback.
	x := &deltaExec{rt: rt, app: p.app}

	var commitRoot func(ri int)
	commitRoot = func(ri int) {
		if ri == len(solved) {
			dep.Created = append([]*Handle(nil), x.created...)
			dep.Finished = rt.eng.Now()
			rt.clearStagedRestore(covered)
			if rt.tr.On() {
				rt.tr.Complete(obs.CatCore, "core.deploy", dep.Started,
					dep.Finished-dep.Started, int64(len(dep.Created)))
			}
			k(dep, nil)
			return
		}
		s := solved[ri]
		x.deployRoot(s, func(err error) {
			if err != nil {
				x.rollback()
				rt.clearStagedRestore(covered)
				fail(fmt.Errorf("core: root %s: %w", s.bind, err))
				return
			}
			h, ok := rt.byBind[s.bind]
			if !ok {
				x.rollback()
				rt.clearStagedRestore(covered)
				fail(fmt.Errorf("core: root %s vanished during commit", s.bind))
				return
			}
			// Only roots whose record this commit actually added may be
			// forgotten by a later rollback: a reused root's record
			// belongs to the commit that created it.
			x.record(s)
			dep.Handles[s.bind] = h
			commitRoot(ri + 1)
		})
	}
	commitRoot(0)
}
