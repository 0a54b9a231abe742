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
	"slices"

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
	settle := func(err error) {
		c.committing = false
		record(err)
	}

	// Displaced shards, in deployment order; checkpoint before anything
	// stops. The behaviour objects are host-side bookkeeping — their last
	// coherent state is exactly what a production cluster would have
	// replicated off the machine before it died (the same stance core's
	// local failover takes for Offcodes on a crashed device). A pin to the
	// dead host cannot be honoured any more, so those shards migrate
	// freely.
	var displaced []planRoot
	displacedSet := make(map[string]bool)
	states := make(map[string][]byte)
	c.shards = slices.DeleteFunc(c.shards, func(pl *placement) bool {
		if pl.back != back {
			return false
		}
		r := pl.planRoot
		if r.pin == name {
			r.pin = ""
		}
		displaced = append(displaced, r)
		displacedSet[r.bind] = true
		if h, err := back.hs.Runtime.GetOffcode(r.bind); err == nil {
			if cp, ok := h.Behaviour().(core.Checkpointer); ok {
				states[r.bind] = cp.Checkpoint()
				if tr.On() {
					tr.Instant(obs.CatCluster, "cluster.checkpoint", int64(len(states[r.bind])))
				}
			}
		}
		return true
	})

	// Bridges touching the dead host are torn down now (the live legs
	// release their channels and forwarders; the dead legs die with the
	// session below) and rebuilt after the displaced shards land.
	var rebuild []*edge
	for _, e := range c.edges {
		if displacedSet[e.a] || displacedSet[e.b] {
			rebuild = append(rebuild, e)
			e.br.teardown()
			e.br = nil
		}
	}

	// The dead host's session teardown settles its simulation ledgers
	// (pinned rings, device memory, reservations).
	if err := back.app.Close(); err != nil && rec.Err == nil {
		rec.Err = fmt.Errorf("cluster: drain %s: %w", name, err)
	}
	if len(displaced) == 0 {
		settle(rec.Err)
		return
	}

	// Re-solve over the survivors and redeploy through the shard
	// transaction: surviving placements stay pinned (their load still
	// bounds capacities, and edges to them still pull), while displaced
	// shards go wherever the link costs and capacities point, with their
	// checkpoints staged. A redeploy or rebridge failure unwinds everything
	// this migration committed or rebridged, so no half-migrated shard is
	// left running but untracked. The displaced shards are then simply
	// gone (their checkpoints were already lost with the machine in any
	// real deployment); rec.Err says so, and a later Plan may redeploy
	// them fresh.
	c.commitShards(displaced, rebuild, states, func(txn *shardTxn, err error) {
		if err != nil {
			// Their edges go with them: a later solve or rebridge must not
			// meet an endpoint that no longer exists.
			c.edges = slices.DeleteFunc(c.edges, func(e *edge) bool {
				return displacedSet[e.a] || displacedSet[e.b]
			})
			settle(err)
			return
		}
		for _, r := range displaced {
			rec.Moved = append(rec.Moved, MovedRoot{Bind: r.bind, From: name, To: txn.hosts[r.bind].name()})
		}
		settle(rec.Err)
	})
}
