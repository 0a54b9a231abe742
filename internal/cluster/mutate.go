package cluster

// This file lifts the core delta surface to cluster scope: a committed
// cluster is no longer a one-shot deployment. Coordinator.Mutate applies
// shard deltas — grow the shard set, shrink it, hot-swap a live shard's
// ODF — against the running assignment with an *incremental* re-solve:
// every committed shard enters the shard graph pinned where it runs, so
// only the mutation's own shards move and the hosts they do not land on
// are provably untouched (their runtimes see no new deployment commit).
// Swaps delegate to the owning host's core.App.Replace, so the channel
// quiesce/replay discipline and the mid-swap rollback are exactly the
// single-host ones; bridge proxy channels attached to the swapped shard
// are session channels and ride through the swap like any other.
//
// Mutate runs on the shared system engine and schedules across hosts
// without lookahead: with Spec.EnginePerHost it must run between windows
// (via sim.Group.Settle), never from an event inside Group.Run.

import (
	"fmt"
	"slices"
	"sort"

	"hydra/internal/core"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// ShardDelta is one mutation of the cluster's committed shard set. The
// concrete types are AddShard, RemoveShard and SwapShard.
type ShardDelta interface {
	shardLabel() string
}

// ShardEdge declares a Connect edge from a newly added shard to another
// shard — either one added in the same mutation or one already committed.
type ShardEdge struct {
	To      string
	Traffic Traffic
}

// AddShard grows the shard set: the ODF at Path deploys as a new shard,
// placed by an incremental re-solve in which every committed shard stays
// pinned to its current host.
type AddShard struct {
	Path string
	// Load is the shard's placement weight (0 → 1).
	Load float64
	// Pin forces the shard onto the named host ("" = solver's choice).
	Pin string
	// Connect declares the new shard's edges; each materializes as a
	// bridge exactly like a plan edge.
	Connect []ShardEdge
}

// RemoveShard shrinks the shard set: the named shard stops, its bridges
// tear down, and its load stops counting against host capacity.
type RemoveShard struct {
	Bind string
}

// SwapShard hot-swaps the named live shard with the ODF at Path (which
// must be stocked in the owning host's depot and carry the same bind
// name), delegating to the host's core.App.Replace: channels quiesce,
// state carries across via the Checkpointer contract, held messages
// replay, and a mid-swap failure rolls back to the old instance.
type SwapShard struct {
	Bind string
	Path string
}

func (d AddShard) shardLabel() string    { return "add " + d.Path }
func (d RemoveShard) shardLabel() string { return "remove " + d.Bind }
func (d SwapShard) shardLabel() string   { return "swap " + d.Bind }

// ShardSwap records one SwapShard's outcome.
type ShardSwap struct {
	Bind, Host string
	// Window is the swap's span on the virtual clock (quiesce → replay).
	Window sim.Time
	// Replayed counts messages held during the quiesce window and
	// re-delivered to the replacement.
	Replayed int
}

// ClusterMutation is the typed outcome of Coordinator.Mutate.
type ClusterMutation struct {
	// Added maps each new shard bind to its host.
	Added map[string]string
	// Swaps records each SwapShard in order.
	Swaps []ShardSwap
	// RedeployedHosts lists the hosts whose runtimes ran a deployment
	// commit during the mutation (sorted); UntouchedHosts lists the live
	// hosts that provably did not — their core deployment counters are
	// unchanged. A swap host appears in neither count's commits: a
	// hot-swap is not a redeploy.
	RedeployedHosts []string
	UntouchedHosts  []string
	// RolledBack reports that a delta failed; deltas before it stay
	// applied (they already committed), the failed delta itself unwound.
	RolledBack bool
	// Started and Finished bracket the mutation on the virtual clock.
	Started, Finished sim.Time
}

// Mutate applies shard deltas in order against the running cluster. Each
// delta is atomic — a failed add unwinds its own sub-commits and bridges,
// a failed swap rolls back to the old shard — and the mutation stops at
// the first failure with RolledBack set. The incremental-re-solve
// contract: hosts that receive no new shard from a delta are not
// redeployed (ClusterMutation.UntouchedHosts names them, backed by each
// runtime's deployment counter).
func (c *Coordinator) Mutate(deltas []ShardDelta, k func(*ClusterMutation, error)) {
	eng := c.sys.Eng
	trm := obs.ForCat(eng, obs.CatMutate)
	res := &ClusterMutation{
		Added:   make(map[string]string),
		Started: eng.Now(),
	}
	// Deployment-counter snapshot: the untouched-host proof.
	before := make(map[string]uint64, len(c.backs))
	for _, b := range c.live() {
		before[b.name()] = b.hs.Runtime.Deployments()
	}
	done := func(err error) {
		res.Finished = eng.Now()
		for _, b := range c.live() {
			base, ok := before[b.name()]
			if !ok {
				continue
			}
			if b.hs.Runtime.Deployments() != base {
				res.RedeployedHosts = append(res.RedeployedHosts, b.name())
			} else {
				res.UntouchedHosts = append(res.UntouchedHosts, b.name())
			}
		}
		sort.Strings(res.RedeployedHosts)
		sort.Strings(res.UntouchedHosts)
		c.committing = false
		if trm.On() {
			trm.Complete(obs.CatMutate, "mutate.cluster", res.Started,
				res.Finished-res.Started, int64(len(deltas)))
		}
		k(res, err)
	}
	if c.closed {
		res.Finished = eng.Now()
		k(res, fmt.Errorf("cluster: coordinator closed"))
		return
	}
	if c.committing {
		res.Finished = eng.Now()
		k(res, fmt.Errorf("cluster: another commit is in flight"))
		return
	}
	c.committing = true

	var apply func(i int)
	apply = func(i int) {
		if i == len(deltas) {
			done(nil)
			return
		}
		next := func(err error) {
			if err != nil {
				res.RolledBack = true
				done(fmt.Errorf("cluster: mutate %s: %w", deltas[i].shardLabel(), err))
				return
			}
			apply(i + 1)
		}
		switch d := deltas[i].(type) {
		case AddShard:
			c.applyAddShard(d, res, trm, next)
		case RemoveShard:
			c.applyRemoveShard(d, trm, next)
		case SwapShard:
			c.applySwapShard(d, res, trm, next)
		default:
			next(fmt.Errorf("cluster: unknown delta %T", deltas[i]))
		}
	}
	apply(0)
}

// applyAddShard deploys one new shard through the coordinator's shard
// transaction: a single-root plan (so AddRoot's pin, depot and
// duplicate-bind checks apply) whose solve pins every committed shard in
// place, a sub-commit on only the chosen host, and a bridge per declared
// edge. A failure unwinds the sub-commit and the bridges already built.
func (c *Coordinator) applyAddShard(d AddShard, res *ClusterMutation, trm *obs.Shard, k func(error)) {
	opts := []RootOption{PinTo(d.Pin)}
	if d.Load != 0 {
		opts = append(opts, WithLoad(d.Load))
	}
	p := c.Plan()
	if err := p.AddRoot(d.Path, opts...); err != nil {
		k(err)
		return
	}
	bind := p.roots[0].bind
	for _, e := range d.Connect {
		if e.To == bind {
			k(fmt.Errorf("cluster: edge %s→%s connects a shard to itself", bind, e.To))
			return
		}
		if c.shard(e.To) == nil {
			k(fmt.Errorf("cluster: edge endpoint %s is not a committed shard", e.To))
			return
		}
		p.edges = append(p.edges, &edge{a: bind, b: e.To, traffic: e.Traffic})
	}
	c.commitShards(p.roots, p.edges, nil, func(txn *shardTxn, err error) {
		if err != nil {
			k(err)
			return
		}
		res.Added[bind] = txn.hosts[bind].name()
		if trm.On() {
			trm.Instant(obs.CatMutate, "mutate.shard.add", int64(len(p.edges)))
		}
		k(nil)
	})
}

// applyRemoveShard stops one committed shard: its bridges tear down
// first (so no relay writes into a dying channel), then the shard stops
// on its host, then the coordinator forgets the shard.
func (c *Coordinator) applyRemoveShard(d RemoveShard, trm *obs.Shard, k func(error)) {
	pl := c.shard(d.Bind)
	if pl == nil {
		k(fmt.Errorf("cluster: %s is not a committed shard", d.Bind))
		return
	}
	torn := 0
	c.edges = slices.DeleteFunc(c.edges, func(e *edge) bool {
		if e.a != d.Bind && e.b != d.Bind {
			return false
		}
		e.br.teardown()
		torn++
		return true
	})

	h, err := pl.back.hs.Runtime.GetOffcode(d.Bind)
	if err == nil {
		if err := pl.back.app.StopOffcode(h); err != nil {
			k(fmt.Errorf("cluster: stop %s on %s: %w", d.Bind, pl.back.name(), err))
			return
		}
	}
	c.shards = slices.DeleteFunc(c.shards, func(p *placement) bool { return p == pl })
	if trm.On() {
		trm.Instant(obs.CatMutate, "mutate.shard.remove", int64(torn))
	}
	k(nil)
}

// applySwapShard hot-swaps one committed shard in place via the owning
// host's core.App.Replace: the bridge proxy channels attached to it are
// session channels, so they quiesce, survive the swap and replay into the
// replacement. The placement's host does not change (the core layer pins
// the replacement to the old target), so no bridge needs rebuilding.
func (c *Coordinator) applySwapShard(d SwapShard, res *ClusterMutation, trm *obs.Shard, k func(error)) {
	pl := c.shard(d.Bind)
	if pl == nil {
		k(fmt.Errorf("cluster: %s is not a committed shard", d.Bind))
		return
	}
	pl.back.app.Replace(d.Bind, d.Path, func(m *core.MutationResult, err error) {
		if err != nil {
			k(err)
			return
		}
		pl.path = d.Path
		sw := ShardSwap{
			Bind: d.Bind, Host: pl.back.name(),
			Window:   m.Finished - m.Started,
			Replayed: m.Replayed,
		}
		res.Swaps = append(res.Swaps, sw)
		if trm.On() {
			trm.Complete(obs.CatMutate, "mutate.shard.swap", m.Started,
				m.Finished-m.Started, int64(m.Replayed))
		}
		k(nil)
	})
}
