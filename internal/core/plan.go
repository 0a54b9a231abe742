package core

import (
	"fmt"

	"hydra/internal/guid"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// DeployPlan is the transactional replacement for the callback Deploy:
// roots accumulate with AddRoot, Solve previews the placement without
// touching hardware, and Commit deploys everything atomically — on a
// partial failure every Offcode instantiated and every ring pinned by the
// plan is rolled back, leaving the host memory ledger and the device
// Offcode population exactly at their pre-plan values.
type DeployPlan struct {
	app       *App
	roots     []planRoot
	committed bool
}

type planRoot struct {
	path string
	bind string
	g    guid.GUID
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
	p.roots = append(p.roots, planRoot{path: path, bind: doc.BindName, g: doc.GUID})
	return nil
}

// Assignment is one Offcode's placement decision in a Preview.
type Assignment struct {
	// BindName and GUID identify the Offcode.
	BindName string
	GUID     guid.GUID
	// Path is the depot ODF the instance will be loaded from.
	Path string
	// Target is the placement: a device name, or "host".
	Target string
	// Root is the plan root whose closure brought this Offcode in.
	Root string
}

// Preview is a solved plan: the placement every new Offcode would get,
// computed without touching hardware or consuming simulated time.
type Preview struct {
	// Assignments lists the new Offcodes in instantiation order.
	Assignments []Assignment
	// Reused lists closure members satisfied by already-running instances.
	Reused []string
}

// Solve resolves the plan's layout — ODF closures, constraint graph,
// greedy or ILP placement — and returns the per-Offcode preview. Nothing
// is instantiated, no device memory moves, and no simulated time passes;
// Commit re-solves against the then-current device health, so a Preview is
// a forecast, not a lease.
func (p *DeployPlan) Solve() (*Preview, error) {
	if p.committed {
		return nil, fmt.Errorf("core: plan already committed")
	}
	if p.app.closed {
		return nil, fmt.Errorf("%w: %s", ErrAppClosed, p.app.name)
	}
	solved, err := p.solveAll()
	if err != nil {
		return nil, err
	}
	return p.preview(solved), nil
}

func (p *DeployPlan) preview(solved []*solvedRoot) *Preview {
	pre := &Preview{}
	for _, s := range solved {
		for i, o := range s.odfs {
			target := "host"
			if ref := s.target(i); ref != nil {
				target = ref.d.Name()
			}
			pre.Assignments = append(pre.Assignments, Assignment{
				BindName: o.BindName, GUID: o.GUID, Path: s.paths[i],
				Target: target, Root: s.bind,
			})
		}
		pre.Reused = append(pre.Reused, s.reused...)
	}
	return pre
}

// solveAll runs the pure front half for every root in order, threading the
// planned state so later roots see earlier ones as placed.
func (p *DeployPlan) solveAll() ([]*solvedRoot, error) {
	placed := newPlacedSet()
	solved := make([]*solvedRoot, 0, len(p.roots))
	for _, r := range p.roots {
		s, err := p.app.rt.solveRoot(r.path, placed)
		if err != nil {
			return nil, fmt.Errorf("core: root %s: %w", r.bind, err)
		}
		solved = append(solved, s)
	}
	return solved, nil
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

	// Steps 1–3 (pure): re-solve now so the placement reflects current
	// device health, not the health at Solve time.
	solved, err := p.solveAll()
	if err != nil {
		fail(err)
		return
	}
	pre := p.preview(solved)

	// Every bind this plan covers — new assignments and reused instances
	// alike. Once the commit settles, staged restore state for these binds
	// is cleared: whatever initialize did not consume (a reused root, a
	// non-Checkpointer behaviour, a failed commit) must not silently feed
	// stale checkpoint bytes into a later, unrelated deployment of the
	// same bind name.
	covered := make([]string, 0, len(pre.Assignments)+len(pre.Reused))
	for _, asg := range pre.Assignments {
		covered = append(covered, asg.BindName)
	}
	covered = append(covered, pre.Reused...)

	// Admission against the session's Offcode quota happens before any
	// hardware is touched: an over-quota plan is rejected wholesale. The
	// probe charge validates the whole plan at once; each instantiated
	// Offcode books its own unit afterwards.
	newCount := int64(len(pre.Assignments))
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
