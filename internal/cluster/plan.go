package cluster

// This file is the cluster-wide transactional deployment pipeline, the
// two-level analogue of core.DeployPlan: AddRoot/Connect accumulate a
// multi-host Offcode graph, Solve assigns shards to hosts (link-cost
// objective over layout.ShardGraph, then each host's own §3.4 pipeline for
// the device-level preview), and Commit drives every host's DeployPlan as
// a sub-transaction — any host's failure unwinds the hosts already
// committed, restoring every ledger to its pre-plan value.

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/layout"
	"hydra/internal/sim"
)

// Plan accumulates a cluster-wide deployment.
type Plan struct {
	coord     *Coordinator
	roots     []planRoot
	edges     []planEdge
	committed bool
}

type planRoot struct {
	path, bind string
	load       float64
	pin        string // host name, "" = free
}

type planEdge struct {
	a, b    string
	traffic Traffic
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
	if cur, ok := p.coord.placements[doc.BindName]; ok {
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
	p.edges = append(p.edges, planEdge{a: a, b: b, traffic: t})
	return nil
}

// Assignment is one shard's host in a Preview.
type Assignment struct {
	Bind, Path string
	Host       string
}

// EdgePreview is one edge's fate in a Preview.
type EdgePreview struct {
	A, B string
	// Cross reports whether the endpoints land on different hosts (the
	// edge will be bridged over HostA↔HostB's link).
	Cross        bool
	HostA, HostB string
}

// Preview is a solved cluster plan: the host every shard would land on,
// which edges cross hosts, the assignment's link cost, and each involved
// host's own device-level placement preview.
type Preview struct {
	Assignments []Assignment
	Edges       []EdgePreview
	// Cost is the summed link cost of the cut edges under the solved
	// assignment (layout.ShardGraph.CostOf).
	Cost float64
	// PerHost maps host name → that host's core placement preview.
	PerHost map[string]*core.Preview
}

// assignment is the solved shard→backend mapping plus bookkeeping shared
// by Solve and Commit.
type assignment struct {
	byRoot map[string]*backend // plan root bind → backend
	cost   float64
}

// solveAssign places the plan's roots over the live backends: committed
// shards are pinned where they run (their load still counts against
// capacities), new roots are free unless user-pinned, and edges charge
// netmodel-derived forwarding cycles scaled by each candidate link.
func (p *Plan) solveAssign() (*assignment, error) {
	c := p.coord
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

	// Committed shards first (pinned in place), then the plan's roots.
	total := 0.0
	nodeIdx := make(map[string]int)
	for _, bind := range c.rootOrder {
		pl := c.placements[bind]
		n, err := g.AddRoot(bind, pl.load, hostIdx[pl.back.name()])
		if err != nil {
			return nil, err
		}
		nodeIdx[bind] = n
		total += pl.load
	}
	for _, r := range p.roots {
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
	for _, e := range p.edges {
		if err := g.AddLink(nodeIdx[e.a], nodeIdx[e.b], edgeWeight(e.traffic)); err != nil {
			return nil, err
		}
	}

	placed, err := g.SolveShardsGreedy()
	if err != nil {
		return nil, fmt.Errorf("cluster: shard assignment: %w", err)
	}
	out := &assignment{byRoot: make(map[string]*backend), cost: g.CostOf(placed)}
	for _, r := range p.roots {
		out.byRoot[r.bind] = live[placed[nodeIdx[r.bind]]]
	}
	return out, nil
}

// hostRoots groups the plan roots per backend, preserving both backend
// declaration order and within-host root order.
func (p *Plan) hostRoots(asg *assignment) []struct {
	back  *backend
	roots []planRoot
} {
	var out []struct {
		back  *backend
		roots []planRoot
	}
	for _, b := range p.coord.live() {
		var mine []planRoot
		for _, r := range p.roots {
			if asg.byRoot[r.bind] == b {
				mine = append(mine, r)
			}
		}
		if len(mine) > 0 {
			out = append(out, struct {
				back  *backend
				roots []planRoot
			}{b, mine})
		}
	}
	return out
}

func (p *Plan) preview(asg *assignment) (*Preview, error) {
	pre := &Preview{PerHost: make(map[string]*core.Preview)}
	for _, r := range p.roots {
		pre.Assignments = append(pre.Assignments, Assignment{
			Bind: r.bind, Path: r.path, Host: asg.byRoot[r.bind].name(),
		})
	}
	for _, e := range p.edges {
		ha, hb := asg.byRoot[e.a].name(), asg.byRoot[e.b].name()
		pre.Edges = append(pre.Edges, EdgePreview{
			A: e.a, B: e.b, Cross: ha != hb, HostA: ha, HostB: hb,
		})
	}
	pre.Cost = asg.cost
	for _, hr := range p.hostRoots(asg) {
		plan := hr.back.app.Plan()
		for _, r := range hr.roots {
			if err := plan.AddRoot(r.path); err != nil {
				return nil, fmt.Errorf("cluster: host %s: %w", hr.back.name(), err)
			}
		}
		hp, err := plan.Solve()
		if err != nil {
			return nil, fmt.Errorf("cluster: host %s: %w", hr.back.name(), err)
		}
		pre.PerHost[hr.back.name()] = hp
	}
	return pre, nil
}

// Deployment is the typed result of a cluster Commit.
type Deployment struct {
	// Preview is the assignment the commit executed.
	Preview *Preview
	// Handles maps each root bind to its handle on its host's runtime.
	// Empty when the commit failed: the cluster rollback revoked them.
	Handles map[string]*core.Handle
	// Bridges maps edge keys (EdgeKey) to the materialized bridges.
	Bridges map[string]*Bridge
	// PerHost maps host name → that host's core Deployment.
	PerHost map[string]*core.Deployment
	// FailedHost names the backend whose sub-transaction failed ("" on
	// success).
	FailedHost string
	// Started and Finished bracket the commit on the virtual clock.
	Started, Finished sim.Time
}

// EdgeKey is the canonical (order-independent) key of an a↔b edge.
func EdgeKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "↔" + b
}

// Commit executes the plan: every host's roots deploy through that host's
// transactional DeployPlan (in backend declaration order, over simulated
// time), then every edge materializes as a bridge. The whole sequence is
// atomic at cluster scope — a failure on any host (or in any bridge
// build) stops every Offcode the already-committed sub-transactions
// created, in reverse order, and tears down every bridge built, before k
// receives the error; each host's LiveBytes/MemLive ledgers return to
// their pre-plan values.
func (p *Plan) Commit(k func(*Deployment, error)) {
	c := p.coord
	eng := c.sys.Eng
	dep := &Deployment{
		Handles: make(map[string]*core.Handle),
		Bridges: make(map[string]*Bridge),
		PerHost: make(map[string]*core.Deployment),
		Started: eng.Now(),
	}
	if p.committed {
		dep.Finished = eng.Now()
		k(dep, fmt.Errorf("cluster: plan already committed"))
		return
	}
	p.committed = true
	if c.committing {
		dep.Finished = eng.Now()
		k(dep, fmt.Errorf("cluster: another commit is in flight"))
		return
	}
	c.committing = true

	asg, err := p.solveAssign()
	var pre *Preview
	if err == nil {
		pre, err = p.preview(asg)
	}
	if err != nil {
		c.committing = false
		dep.Finished = eng.Now()
		k(dep, err)
		return
	}
	dep.Preview = pre

	hostPlans := p.hostRoots(asg)
	var committed []*core.Deployment // for reverse unwind
	var built []*Bridge

	fail := func(err error) {
		for i := len(built) - 1; i >= 0; i-- {
			built[i].teardown()
		}
		for i := len(committed) - 1; i >= 0; i-- {
			unwindDeployment(committed[i])
		}
		// The unwound sub-deployments hold handles of now-stopped Offcodes;
		// a failed commit's result must not expose any of them.
		dep.Handles = make(map[string]*core.Handle)
		dep.Bridges = make(map[string]*Bridge)
		dep.PerHost = make(map[string]*core.Deployment)
		c.committing = false
		dep.Finished = eng.Now()
		k(dep, err)
	}

	finish := func() {
		for _, r := range p.roots {
			c.placements[r.bind] = &placement{
				bind: r.bind, path: r.path, load: r.load, pin: r.pin,
				back: asg.byRoot[r.bind],
			}
			c.rootOrder = append(c.rootOrder, r.bind)
		}
		for _, e := range p.edges {
			// Re-connecting an edge whose shards were unwound by an earlier
			// failure updates the record instead of duplicating it.
			dup := false
			for i := range c.edges {
				if EdgeKey(c.edges[i].a, c.edges[i].b) == EdgeKey(e.a, e.b) {
					c.edges[i].traffic = e.traffic
					dup = true
					break
				}
			}
			if !dup {
				c.edges = append(c.edges, edgeRec{a: e.a, b: e.b, traffic: e.traffic})
			}
		}
		for _, b := range built {
			c.bridges[EdgeKey(b.A, b.B)] = b
		}
		c.committing = false
		dep.Finished = eng.Now()
		k(dep, nil)
	}

	var buildEdge func(i int)
	buildEdge = func(i int) {
		if i == len(p.edges) {
			finish()
			return
		}
		e := p.edges[i]
		c.buildBridge(e.a, e.b, asg.byRoot[e.a], asg.byRoot[e.b], func(br *Bridge, err error) {
			if err != nil {
				fail(fmt.Errorf("cluster: bridge %s↔%s: %w", e.a, e.b, err))
				return
			}
			built = append(built, br)
			dep.Bridges[EdgeKey(e.a, e.b)] = br
			buildEdge(i + 1)
		})
	}

	var commitHost func(i int)
	commitHost = func(i int) {
		if i == len(hostPlans) {
			buildEdge(0)
			return
		}
		hp := hostPlans[i]
		plan := hp.back.app.Plan()
		for _, r := range hp.roots {
			if err := plan.AddRoot(r.path); err != nil {
				dep.FailedHost = hp.back.name()
				fail(fmt.Errorf("cluster: host %s: %w", hp.back.name(), err))
				return
			}
		}
		plan.Commit(func(hdep *core.Deployment, err error) {
			if err != nil {
				dep.FailedHost = hp.back.name()
				fail(fmt.Errorf("cluster: host %s: %w", hp.back.name(), err))
				return
			}
			committed = append(committed, hdep)
			dep.PerHost[hp.back.name()] = hdep
			for bind, h := range hdep.Handles {
				dep.Handles[bind] = h
			}
			commitHost(i + 1)
		})
	}
	commitHost(0)
}

// unwindDeployment reverses one host's committed sub-transaction: every
// Offcode the commit created stops in reverse instantiation order, and the
// roots it recorded are forgotten so local failover will not resurrect
// them. This restores the host's LiveBytes/MemLive ledgers to their
// pre-plan values, mirroring core.DeployPlan's own mid-commit rollback.
func unwindDeployment(d *core.Deployment) {
	rt := d.App.Runtime()
	for i := len(d.Created) - 1; i >= 0; i-- {
		rt.StopOffcode(d.Created[i])
	}
}
