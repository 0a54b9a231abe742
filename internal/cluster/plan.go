package cluster

// This file is the cluster-wide transactional deployment pipeline, the
// two-level analogue of core.DeployPlan: AddRoot/Connect accumulate a
// multi-host Offcode graph, and Commit assigns shards to hosts (link-cost
// objective over layout.ShardGraph) and then drives every host's
// DeployPlan as a sub-transaction, in which that host's own §3.4 pipeline
// places the shard on its devices. Any host's failure unwinds the hosts
// already committed, restoring every ledger to its pre-plan value. That
// transaction (commitShards) is the only code that commits shards on
// hosts: Mutate's AddShard and FailHost run it too.

import (
	"fmt"
	"maps"
	"slices"

	"hydra/internal/core"
	"hydra/internal/layout"
	"hydra/internal/sim"
)

// Plan accumulates a cluster-wide deployment.
type Plan struct {
	coord     *Coordinator
	roots     []planRoot
	edges     []*edge
	committed bool
}

type planRoot struct {
	path, bind string
	load       float64
	pin        string // host name, "" = free
}

// edge is one Connect edge and, once committed, the bridge that
// materializes it (nil while a failover rebuilds it).
type edge struct {
	a, b    string
	traffic Traffic
	br      *Bridge
}

// RootOption tunes one Plan.AddRoot call.
type RootOption func(*rootOpts)

type rootOpts struct {
	load float64
	pin  string
}

// WithLoad sets the shard's placement weight (default 1).
func WithLoad(load float64) RootOption {
	return func(o *rootOpts) { o.load = load }
}

// PinTo forces the shard onto the named host.
func PinTo(host string) RootOption {
	return func(o *rootOpts) { o.pin = host }
}

// Plan starts an empty cluster deployment plan.
func (c *Coordinator) Plan() *Plan {
	return &Plan{coord: c}
}

// AddRoot appends the ODF at path as a cluster deployment root (a shard:
// its whole import closure lands on whichever host the solver picks). The
// ODF must be stocked in the depot of every host it may land on; the bind
// name must be new to the plan and to the cluster.
func (p *Plan) AddRoot(path string, opts ...RootOption) error {
	if p.committed {
		return fmt.Errorf("cluster: plan already committed")
	}
	o := rootOpts{load: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.pin != "" {
		back, ok := p.coord.byHost[o.pin]
		if !ok {
			return fmt.Errorf("cluster: %s pins to unknown host %q", path, o.pin)
		}
		if back.dead {
			return fmt.Errorf("cluster: %s pins to dead host %q", path, o.pin)
		}
	}
	live := p.coord.live()
	if len(live) == 0 {
		return fmt.Errorf("cluster: no live hosts")
	}
	doc, err := live[0].hs.Depot.LoadODF(path)
	if err != nil {
		return err
	}
	for _, r := range p.roots {
		if r.bind == doc.BindName {
			return fmt.Errorf("%w: %s already a root of this plan (from %s)",
				core.ErrDuplicateBind, doc.BindName, r.path)
		}
	}
	if cur := p.coord.shard(doc.BindName); cur != nil {
		return fmt.Errorf("%w: %s already deployed on host %s",
			core.ErrDuplicateBind, doc.BindName, cur.back.name())
	}
	p.roots = append(p.roots, planRoot{path: path, bind: doc.BindName, load: o.load, pin: o.pin})
	return nil
}

// Connect declares a communication edge between two of the plan's roots.
// The traffic estimate feeds the placement objective; after Commit the
// edge exists as a Bridge — two proxy channels, plus a forwarder pair over
// the host↔host link when the solver separates the endpoints.
func (p *Plan) Connect(a, b string, t Traffic) error {
	if p.committed {
		return fmt.Errorf("cluster: plan already committed")
	}
	if a == b {
		return fmt.Errorf("cluster: edge %s→%s connects a shard to itself", a, b)
	}
	for _, name := range []string{a, b} {
		found := false
		for _, r := range p.roots {
			if r.bind == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cluster: edge endpoint %s is not a root of this plan", name)
		}
	}
	for _, e := range p.edges {
		if (e.a == a && e.b == b) || (e.a == b && e.b == a) {
			return fmt.Errorf("cluster: edge %s↔%s already declared", a, b)
		}
	}
	p.edges = append(p.edges, &edge{a: a, b: b, traffic: t})
	return nil
}

// solveAssign places roots over the live backends: committed shards are
// pinned where they run (their load still counts against capacities), new
// roots are free unless user-pinned, and edges charge netmodel-derived
// forwarding cycles scaled by each candidate link. It returns each root's
// backend.
func (c *Coordinator) solveAssign(roots []planRoot, edges []*edge) (map[string]*backend, error) {
	live := c.live()
	if len(live) == 0 {
		return nil, fmt.Errorf("cluster: no live hosts")
	}
	hostIdx := make(map[string]int, len(live))
	g := &layout.ShardGraph{}
	for i, b := range live {
		hostIdx[b.name()] = i
		g.Hosts = append(g.Hosts, layout.ShardHost{Name: b.name()})
	}
	g.LinkCost = make([][]float64, len(live))
	linkCost := linkCostFactor(c.cfg.DefaultLink)
	for i := range live {
		g.LinkCost[i] = make([]float64, len(live))
		for j := range live {
			if i != j {
				g.LinkCost[i][j] = linkCost
			}
		}
	}

	// Committed shards first (pinned in place), then the new roots.
	total := 0.0
	nodeIdx := make(map[string]int)
	for _, pl := range c.shards {
		n, err := g.AddRoot(pl.bind, pl.load, hostIdx[pl.back.name()])
		if err != nil {
			return nil, err
		}
		nodeIdx[pl.bind] = n
		total += pl.load
	}
	for _, r := range roots {
		pin := -1
		if r.pin != "" {
			idx, alive := hostIdx[r.pin]
			if !alive {
				// The pinned host died between AddRoot and this solve; a
				// silent re-pin elsewhere would violate the constraint.
				return nil, fmt.Errorf("cluster: %s is pinned to host %q, which is no longer live",
					r.bind, r.pin)
			}
			pin = idx
		}
		n, err := g.AddRoot(r.bind, r.load, pin)
		if err != nil {
			return nil, err
		}
		nodeIdx[r.bind] = n
		total += r.load
	}
	cap := c.autoCapacity(total, len(live))
	for i := range g.Hosts {
		g.Hosts[i].Capacity = cap
	}
	for _, e := range edges {
		if err := g.AddLink(nodeIdx[e.a], nodeIdx[e.b], edgeWeight(e.traffic)); err != nil {
			return nil, err
		}
	}

	placed, err := g.SolveShardsGreedy()
	if err != nil {
		return nil, fmt.Errorf("cluster: shard assignment: %w", err)
	}
	hosts := make(map[string]*backend, len(roots))
	for _, r := range roots {
		hosts[r.bind] = live[placed[nodeIdx[r.bind]]]
	}
	return hosts, nil
}

// Deployment is the typed result of a cluster Commit.
type Deployment struct {
	// Handles maps each root bind to its handle on its host's runtime.
	// Empty when the commit failed: the cluster rollback revoked them.
	Handles map[string]*core.Handle
	// Bridges lists the materialized bridges in Connect order.
	Bridges []*Bridge
	// Started and Finished bracket the commit on the virtual clock.
	Started, Finished sim.Time
}

// Commit executes the plan through the coordinator's shard transaction
// (commitShards): every host's roots deploy through that host's
// transactional DeployPlan, then every edge materializes as a bridge. The
// whole sequence is atomic at cluster scope — on any failure each host's
// LiveBytes/MemLive ledgers return to their pre-plan values before k
// receives the error.
func (p *Plan) Commit(k func(*Deployment, error)) {
	c := p.coord
	eng := c.sys.Eng
	dep := &Deployment{
		Handles: make(map[string]*core.Handle),
		Started: eng.Now(),
	}
	done := func(err error) {
		dep.Finished = eng.Now()
		k(dep, err)
	}
	if p.committed {
		done(fmt.Errorf("cluster: plan already committed"))
		return
	}
	p.committed = true
	if c.committing {
		done(fmt.Errorf("cluster: another commit is in flight"))
		return
	}
	c.committing = true
	c.commitShards(p.roots, p.edges, nil, func(txn *shardTxn, err error) {
		c.committing = false
		if err == nil {
			dep.Handles, dep.Bridges = txn.handles, txn.bridges
		}
		done(err)
	})
}

// shardTxn is what a successful commitShards produced.
type shardTxn struct {
	hosts   map[string]*backend     // root bind → the host it landed on
	handles map[string]*core.Handle // root bind → its handle there
	bridges []*Bridge               // one per edge, in edge order
}

// commitShards is the coordinator's one host-level transaction, shared by
// Plan.Commit, Mutate's AddShard and FailHost. It solves the assignment of
// roots (every committed shard pinned where it runs), then commits each
// receiving host's core.DeployPlan in backend order, first staging
// states[bind] as the restore of every root that has one, then builds a
// bridge per edge; an edge endpoint is either one of roots or a committed
// shard. On success it records the shards, appends the new edges and
// attaches each edge's bridge before k runs. On any failure it tears down the bridges it
// built and stops every Offcode the host commits created, both in reverse
// order, so every host's LiveBytes/MemLive ledgers are back at their
// pre-transaction values when k receives the error.
func (c *Coordinator) commitShards(roots []planRoot, edges []*edge, states map[string][]byte,
	k func(*shardTxn, error)) {
	hosts, err := c.solveAssign(roots, edges)
	if err != nil {
		k(nil, err)
		return
	}
	txn := &shardTxn{hosts: hosts, handles: make(map[string]*core.Handle)}
	var committed []*core.Deployment
	fail := func(err error) {
		for i := len(txn.bridges) - 1; i >= 0; i-- {
			txn.bridges[i].teardown()
		}
		for i := len(committed) - 1; i >= 0; i-- {
			d := committed[i]
			for j := len(d.Created) - 1; j >= 0; j-- {
				d.App.Runtime().StopOffcode(d.Created[j])
			}
		}
		k(nil, err)
	}

	finish := func() {
		for _, r := range roots {
			c.shards = append(c.shards, &placement{planRoot: r, back: hosts[r.bind]})
		}
		for i, e := range edges {
			e.br = txn.bridges[i]
			// FailHost passes the recorded edges it rebuilds.
			if !slices.Contains(c.edges, e) {
				c.edges = append(c.edges, e)
			}
		}
		k(txn, nil)
	}

	backOf := func(bind string) *backend {
		if b, ok := hosts[bind]; ok {
			return b
		}
		return c.shard(bind).back
	}
	var buildEdge func(i int)
	buildEdge = func(i int) {
		if i == len(edges) {
			finish()
			return
		}
		e := edges[i]
		c.buildBridge(e.a, e.b, backOf(e.a), backOf(e.b), func(br *Bridge, err error) {
			if err != nil {
				fail(fmt.Errorf("cluster: bridge %s↔%s: %w", e.a, e.b, err))
				return
			}
			txn.bridges = append(txn.bridges, br)
			buildEdge(i + 1)
		})
	}

	// Host commits run in backend declaration order, each host's roots in
	// their given order.
	var targets []*backend
	for _, b := range c.live() {
		for _, r := range roots {
			if hosts[r.bind] == b {
				targets = append(targets, b)
				break
			}
		}
	}
	var commitHost func(i int)
	commitHost = func(i int) {
		if i == len(targets) {
			buildEdge(0)
			return
		}
		back := targets[i]
		hostFail := func(err error) { fail(fmt.Errorf("cluster: host %s: %w", back.name(), err)) }
		plan := back.app.Plan()
		for _, r := range roots {
			if hosts[r.bind] != back {
				continue
			}
			if err := plan.AddRoot(r.path); err != nil {
				hostFail(err)
				return
			}
			if state, ok := states[r.bind]; ok {
				back.hs.Runtime.StageRestore(r.bind, state)
			}
		}
		plan.Commit(func(d *core.Deployment, err error) {
			if err != nil {
				hostFail(err)
				return
			}
			committed = append(committed, d)
			maps.Copy(txn.handles, d.Handles)
			commitHost(i + 1)
		})
	}
	commitHost(0)
}
