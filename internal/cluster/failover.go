package cluster

// This file is cluster-aware failover: migration off a dead *machine*,
// not just a dead peripheral. Where core's health monitor re-solves one
// runtime's layout over its surviving devices, FailHost re-solves the
// cluster's shard assignment over the surviving hosts, carries every
// checkpointable Offcode's state from the dead host into its
// re-instantiated successor elsewhere (between Initialize and Start, via
// core.Runtime.StageRestore — the same restore window local failover
// uses), and rebuilds the bridges whose endpoints moved. Like everything
// else it runs on the virtual clock: a fixed seed reproduces the whole
// migration bit-for-bit.

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// MovedRoot records one shard's cross-host migration.
type MovedRoot struct {
	Bind     string
	From, To string
}

// Migration records one host failure the coordinator healed from.
type Migration struct {
	// Host is the dead machine.
	Host string
	// Started and Finished bracket the checkpoint → re-solve → redeploy →
	// bridge-rebuild sequence on the virtual clock.
	Started, Finished sim.Time
	// Moved lists the displaced shards and where they landed, in
	// deployment order.
	Moved []MovedRoot
	// Err is non-nil when re-deployment failed (e.g. the survivors cannot
	// satisfy a pin or capacity).
	Err error
}

// Time reports how long the migration took.
func (m *Migration) Time() sim.Time { return m.Finished - m.Started }

// FailHost declares a whole machine dead and migrates its shards to the
// surviving hosts: checkpoint what can carry state, tear down the dead
// host's session (its simulation-side ledgers; the machine itself is
// gone), re-solve the assignment over the survivors with the remaining
// placements pinned, redeploy the displaced shards with their checkpoints
// staged, and rebuild every bridge that touched the dead host. k receives
// the Migration record when the sequence settles on the virtual clock.
//
// FailHost drives the migration on the shared system engine and is a
// serial-mode operation: with Spec.EnginePerHost it must run between
// windows (via sim.Group.Settle), never while host goroutines are inside
// Group.Run.
func (c *Coordinator) FailHost(name string, k func(*Migration, error)) {
	eng := c.sys.Eng
	tr := obs.ForCat(eng, obs.CatCluster)
	rec := &Migration{Host: name, Started: eng.Now()}
	record := func(err error) {
		if err != nil && rec.Err == nil {
			rec.Err = err
		}
		rec.Finished = eng.Now()
		// The whole checkpoint → re-solve → redeploy → rebridge sequence
		// becomes one migration span on the system shard.
		if tr.On() {
			tr.Complete(obs.CatCluster, "cluster.migrate", rec.Started,
				rec.Finished-rec.Started, int64(len(rec.Moved)))
		}
		k(rec, err)
	}
	back, ok := c.byHost[name]
	if !ok {
		record(fmt.Errorf("cluster: unknown host %q", name))
		return
	}
	if back.dead {
		record(fmt.Errorf("cluster: host %q already failed", name))
		return
	}
	if c.committing {
		record(fmt.Errorf("cluster: host %q failed mid-commit", name))
		return
	}
	back.dead = true
	// The migration owns the coordinator until it settles: a cluster
	// Commit interleaving with the re-solve/redeploy would read placements
	// mid-surgery.
	c.committing = true
	fail := func(err error) {
		c.committing = false
		record(err)
	}

	// Displaced shards, in deployment order; checkpoint before anything
	// stops. The behaviour objects are host-side bookkeeping — their last
	// coherent state is exactly what a production cluster would have
	// replicated off the machine before it died (the same stance core's
	// local failover takes for Offcodes on a crashed device).
	var displaced []planRoot
	states := make(map[string][]byte)
	for _, bind := range c.rootOrder {
		pl := c.placements[bind]
		if pl.back != back {
			continue
		}
		displaced = append(displaced, planRoot{path: pl.path, bind: bind, load: pl.load, pin: pl.pin})
		if h, err := back.hs.Runtime.GetOffcode(bind); err == nil {
			if cp, ok := h.Behaviour().(core.Checkpointer); ok {
				states[bind] = cp.Checkpoint()
				if tr.On() {
					tr.Instant(obs.CatCluster, "cluster.checkpoint", int64(len(states[bind])))
				}
			}
		}
		delete(c.placements, bind)
	}
	kept := c.rootOrder[:0]
	for _, bind := range c.rootOrder {
		if _, alive := c.placements[bind]; alive {
			kept = append(kept, bind)
		}
	}
	c.rootOrder = kept

	// Bridges touching the dead host are torn down now (the live legs
	// release their channels and forwarders; the dead legs die with the
	// session below) and rebuilt after the displaced shards land.
	var rebuild []edgeRec
	displacedSet := make(map[string]bool, len(displaced))
	for _, r := range displaced {
		displacedSet[r.bind] = true
	}
	for _, e := range c.edges {
		if displacedSet[e.a] || displacedSet[e.b] {
			rebuild = append(rebuild, e)
			key := EdgeKey(e.a, e.b)
			if br := c.bridges[key]; br != nil {
				br.teardown()
				delete(c.bridges, key)
			}
		}
	}

	// The dead host's session teardown settles its simulation ledgers
	// (pinned rings, device memory, reservations); a pin to the dead host
	// cannot be honoured any more, so those shards migrate freely.
	if err := back.app.Close(); err != nil && rec.Err == nil {
		rec.Err = fmt.Errorf("cluster: drain %s: %w", name, err)
	}
	for i := range displaced {
		if displaced[i].pin == name {
			displaced[i].pin = ""
		}
	}
	finish := func() {
		c.committing = false
		record(rec.Err)
	}
	if len(displaced) == 0 {
		finish()
		return
	}

	// Re-solve over the survivors: surviving placements stay pinned (their
	// load still bounds capacities, and edges to them still pull), while
	// displaced shards go wherever the link costs and capacities point.
	// The plan pipeline is reused wholesale; survivors enter the shard
	// graph as pinned nodes, so edges to them are valid objective terms.
	p := &Plan{coord: c, roots: displaced}
	for _, e := range rebuild {
		p.edges = append(p.edges, planEdge{a: e.a, b: e.b, traffic: e.traffic})
	}
	asg, err := p.solveAssign()
	if err != nil {
		fail(err)
		return
	}

	// A redeploy or rebridge failure must not strand half-migrated shards
	// as running-but-untracked: everything this migration committed or
	// rebridged unwinds, mirroring Plan.Commit's cluster-wide rollback.
	// The displaced shards are then simply gone (their checkpoints were
	// already lost with the machine in any real deployment); rec.Err says
	// so, and a later Plan may redeploy them fresh.
	var committedDeps []*core.Deployment
	var rebuilt []*Bridge
	failUnwind := func(err error) {
		for i := len(rebuilt) - 1; i >= 0; i-- {
			rebuilt[i].teardown()
			delete(c.bridges, EdgeKey(rebuilt[i].A, rebuilt[i].B))
		}
		for i := len(committedDeps) - 1; i >= 0; i-- {
			unwindDeployment(committedDeps[i])
		}
		fail(err)
	}
	// Backend of an edge endpoint during the rebuild: freshly assigned for
	// displaced shards (placements update only once everything succeeds),
	// current placement for survivors.
	backOf := func(bind string) *backend {
		if b, ok := asg.byRoot[bind]; ok {
			return b
		}
		return c.placements[bind].back
	}

	hostPlans := p.hostRoots(asg)
	var commitHost func(i int)
	commitHost = func(i int) {
		if i == len(hostPlans) {
			var rebuildEdge func(j int)
			rebuildEdge = func(j int) {
				if j == len(rebuild) {
					for _, r := range displaced {
						c.placements[r.bind] = &placement{
							bind: r.bind, path: r.path, load: r.load, pin: r.pin,
							back: asg.byRoot[r.bind],
						}
						c.rootOrder = append(c.rootOrder, r.bind)
						rec.Moved = append(rec.Moved, MovedRoot{
							Bind: r.bind, From: name, To: asg.byRoot[r.bind].name(),
						})
					}
					for _, br := range rebuilt {
						c.bridges[EdgeKey(br.A, br.B)] = br
					}
					finish()
					return
				}
				e := rebuild[j]
				c.buildBridge(e.a, e.b, backOf(e.a), backOf(e.b), func(br *Bridge, err error) {
					if err != nil {
						failUnwind(fmt.Errorf("cluster: rebridge %s↔%s: %w", e.a, e.b, err))
						return
					}
					rebuilt = append(rebuilt, br)
					rebuildEdge(j + 1)
				})
			}
			rebuildEdge(0)
			return
		}
		hp := hostPlans[i]
		plan := hp.back.app.Plan()
		for _, r := range hp.roots {
			if err := plan.AddRoot(r.path); err != nil {
				failUnwind(fmt.Errorf("cluster: redeploy on %s: %w", hp.back.name(), err))
				return
			}
			if state, ok := states[r.bind]; ok {
				hp.back.hs.Runtime.StageRestore(r.bind, state)
			}
		}
		plan.Commit(func(d *core.Deployment, err error) {
			if err != nil {
				failUnwind(fmt.Errorf("cluster: redeploy on %s: %w", hp.back.name(), err))
				return
			}
			committedDeps = append(committedDeps, d)
			commitHost(i + 1)
		})
	}
	commitHost(0)
}
