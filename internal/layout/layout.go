// Package layout implements the offloading layout graph and its resolvers.
//
// The graph (paper §3.3/§5.1) has Offcodes as vertices and channel
// constraints as edges; every vertex carries a compatibility vector over
// {host} ∪ devices. The runtime resolves the graph to a placement either
// greedily (fast, possibly suboptimal — the paper: "for complex scenarios a
// greedy solution is not always optimal") or optimally via the ILP
// formulation of §5.1 with one of the §5.1.3 objectives.
//
// Formulation notes. The paper's equations are reproduced with the obvious
// reading of its notation: k = 0 is the host CPU; "offloaded" means
// Σ_{k≥1} X^k_n = 1. Unique placement is per-Offcode (eq. 1), Pull is
// per-device equality (eq. 2), Gang equates offload indicators (eq. 3), and
// Asymmetric Gang (a→b) requires offload(a) ≤ offload(b) (eq. 4). The
// Maximize-Bus-Usage objective uses the paper's per-Offcode "Price"
// (estimated bus bandwidth) and interprets the capability matrix as a
// per-device bandwidth budget that placed Offcodes consume.
package layout

import (
	"fmt"
	"sort"

	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/ilp"
	"hydra/internal/odf"
)

// Target describes one placement target. Index 0 is always the host.
type Target struct {
	Name  string
	Class device.Class
	// BusCapacity bounds the total Price of Offcodes placed on this
	// target (Maximize-Bus-Usage objective); 0 means unbounded.
	BusCapacity float64
}

// Node is one Offcode vertex.
type Node struct {
	BindName string
	GUID     guid.GUID
	// Compat[k] reports whether target k can host this Offcode
	// (the paper's C^k_n). Compat[0] is the host CPU.
	Compat []bool
	// Price is the Offcode's estimated average bus bandwidth (§5.1.3 #2).
	Price float64
}

// Edge is one constraint between two Offcodes. For AsymmetricGang the
// direction is From→To: offloading From implies offloading To.
type Edge struct {
	From, To int
	Type     odf.ConstraintType
}

// Graph is the offloading layout graph.
type Graph struct {
	Targets []Target // Targets[0] must be the host
	Nodes   []Node
	Edges   []Edge
}

// K reports the number of placement targets including the host.
func (g *Graph) K() int { return len(g.Targets) }

// NewGraph creates a graph with the host plus the given device targets.
func NewGraph(devices ...Target) *Graph {
	targets := make([]Target, 0, len(devices)+1)
	targets = append(targets, Target{Name: "host", Class: device.Class{Name: "Host CPU"}})
	targets = append(targets, devices...)
	return &Graph{Targets: targets}
}

// AddNode appends a vertex and returns its index. compat must cover all
// targets; a nil compat means host-only.
func (g *Graph) AddNode(bind string, id guid.GUID, price float64, compat []bool) (int, error) {
	if compat == nil {
		compat = make([]bool, g.K())
		compat[0] = true
	}
	if len(compat) != g.K() {
		return 0, fmt.Errorf("layout: node %s: compat has %d entries for %d targets",
			bind, len(compat), g.K())
	}
	any := false
	for _, c := range compat {
		any = any || c
	}
	if !any {
		return 0, fmt.Errorf("layout: node %s: no compatible target", bind)
	}
	g.Nodes = append(g.Nodes, Node{
		BindName: bind, GUID: id, Price: price,
		Compat: append([]bool(nil), compat...),
	})
	return len(g.Nodes) - 1, nil
}

// AddEdge appends a constraint edge.
func (g *Graph) AddEdge(from, to int, t odf.ConstraintType) error {
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) || from == to {
		return fmt.Errorf("layout: bad edge %d→%d", from, to)
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Type: t})
	return nil
}

// Placement maps node index → target index (0 = host).
type Placement []int

// OffloadCount reports how many nodes left the host.
func (p Placement) OffloadCount() int {
	c := 0
	for _, t := range p {
		if t != 0 {
			c++
		}
	}
	return c
}

// Objective selects the ILP optimization target (§5.1.3).
type Objective int

// Objectives.
const (
	// MaximizeOffload offloads as many Offcodes as possible, minimizing
	// host CPU usage and memory contention.
	MaximizeOffload Objective = iota
	// MaximizeBusUsage maximizes the total Price (estimated bandwidth) of
	// offloaded Offcodes subject to per-target bus budgets.
	MaximizeBusUsage
)

// Validate checks a placement against compatibility and every edge
// constraint, returning a descriptive error for the first violation.
func (g *Graph) Validate(p Placement) error {
	if len(p) != len(g.Nodes) {
		return fmt.Errorf("layout: placement covers %d of %d nodes", len(p), len(g.Nodes))
	}
	for n, t := range p {
		if t < 0 || t >= g.K() {
			return fmt.Errorf("layout: node %s placed on unknown target %d", g.Nodes[n].BindName, t)
		}
		if !g.Nodes[n].Compat[t] {
			return fmt.Errorf("layout: node %s incompatible with target %s",
				g.Nodes[n].BindName, g.Targets[t].Name)
		}
	}
	for _, e := range g.Edges {
		a, b := p[e.From], p[e.To]
		switch e.Type {
		case odf.Pull:
			if a != b {
				return fmt.Errorf("layout: Pull(%s,%s) violated: %s vs %s",
					g.Nodes[e.From].BindName, g.Nodes[e.To].BindName,
					g.Targets[a].Name, g.Targets[b].Name)
			}
		case odf.Gang:
			if (a != 0) != (b != 0) {
				return fmt.Errorf("layout: Gang(%s,%s) violated",
					g.Nodes[e.From].BindName, g.Nodes[e.To].BindName)
			}
		case odf.AsymmetricGang:
			if a != 0 && b == 0 {
				return fmt.Errorf("layout: AsymmetricGang(%s→%s) violated",
					g.Nodes[e.From].BindName, g.Nodes[e.To].BindName)
			}
		case odf.Link:
			// No placement constraint.
		}
	}
	// Bus budgets.
	for k := 1; k < g.K(); k++ {
		cap := g.Targets[k].BusCapacity
		if cap <= 0 {
			continue
		}
		used := 0.0
		for n, t := range p {
			if t == k {
				used += g.Nodes[n].Price
			}
		}
		if used > cap+1e-9 {
			return fmt.Errorf("layout: target %s over bus budget: %.3g > %.3g",
				g.Targets[k].Name, used, cap)
		}
	}
	return nil
}

// ObjectiveValue scores a placement under the objective.
func (g *Graph) ObjectiveValue(p Placement, obj Objective) float64 {
	v := 0.0
	for n, t := range p {
		if t == 0 {
			continue
		}
		switch obj {
		case MaximizeOffload:
			v++
		case MaximizeBusUsage:
			v += g.Nodes[n].Price
		}
	}
	return v
}

// --- ILP resolver ---

// BuildProblem translates the graph into the §5.1 ILP.
func (g *Graph) BuildProblem(obj Objective) *ilp.Problem {
	N, K := len(g.Nodes), g.K()
	idx := func(n, k int) int { return n*K + k }
	p := &ilp.Problem{NumVars: N * K, Objective: make([]float64, N*K)}

	for n := range g.Nodes {
		// Objective coefficients on offloaded placements.
		for k := 1; k < K; k++ {
			switch obj {
			case MaximizeOffload:
				p.Objective[idx(n, k)] = 1
			case MaximizeBusUsage:
				p.Objective[idx(n, k)] = g.Nodes[n].Price
			}
		}
		// Eq. 1: unique placement over compatible targets.
		place := ilp.Constraint{
			Coeffs: map[int]float64{}, Sense: ilp.EQ, RHS: 1,
			Label: "place(" + g.Nodes[n].BindName + ")",
		}
		for k := 0; k < K; k++ {
			place.Coeffs[idx(n, k)] = 1
			if !g.Nodes[n].Compat[k] {
				p.AddConstraint(ilp.Constraint{
					Coeffs: map[int]float64{idx(n, k): 1}, Sense: ilp.EQ, RHS: 0,
					Label: fmt.Sprintf("compat(%s,%s)", g.Nodes[n].BindName, g.Targets[k].Name),
				})
			}
		}
		p.AddConstraint(place)
	}

	for _, e := range g.Edges {
		a, b := e.From, e.To
		switch e.Type {
		case odf.Pull: // Eq. 2: same target for every k.
			for k := 0; k < K; k++ {
				p.AddConstraint(ilp.Constraint{
					Coeffs: map[int]float64{idx(a, k): 1, idx(b, k): -1},
					Sense:  ilp.EQ, RHS: 0,
					Label: fmt.Sprintf("pull(%s,%s,k=%d)", g.Nodes[a].BindName, g.Nodes[b].BindName, k),
				})
			}
		case odf.Gang: // Eq. 3: equal offload indicators.
			c := ilp.Constraint{Coeffs: map[int]float64{}, Sense: ilp.EQ, RHS: 0,
				Label: fmt.Sprintf("gang(%s,%s)", g.Nodes[a].BindName, g.Nodes[b].BindName)}
			for k := 1; k < K; k++ {
				c.Coeffs[idx(a, k)] += 1
				c.Coeffs[idx(b, k)] -= 1
			}
			p.AddConstraint(c)
		case odf.AsymmetricGang: // Eq. 4: offload(a) ≤ offload(b).
			c := ilp.Constraint{Coeffs: map[int]float64{}, Sense: ilp.LE, RHS: 0,
				Label: fmt.Sprintf("agang(%s,%s)", g.Nodes[a].BindName, g.Nodes[b].BindName)}
			for k := 1; k < K; k++ {
				c.Coeffs[idx(a, k)] += 1
				c.Coeffs[idx(b, k)] -= 1
			}
			p.AddConstraint(c)
		}
	}

	// Bus budgets (Maximize-Bus-Usage capability matrix).
	for k := 1; k < K; k++ {
		cap := g.Targets[k].BusCapacity
		if cap <= 0 {
			continue
		}
		c := ilp.Constraint{Coeffs: map[int]float64{}, Sense: ilp.LE, RHS: cap,
			Label: "busbudget(" + g.Targets[k].Name + ")"}
		for n := range g.Nodes {
			if g.Nodes[n].Price != 0 {
				c.Coeffs[idx(n, k)] = g.Nodes[n].Price
			}
		}
		if len(c.Coeffs) > 0 {
			p.AddConstraint(c)
		}
	}
	return p
}

// SolveILP resolves the graph optimally.
func (g *Graph) SolveILP(obj Objective) (Placement, *ilp.Solution, error) {
	prob := g.BuildProblem(obj)
	sol, err := ilp.Solve(prob, ilp.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("layout: %w", err)
	}
	K := g.K()
	p := make(Placement, len(g.Nodes))
	for n := range g.Nodes {
		p[n] = 0
		for k := 0; k < K; k++ {
			if sol.X[n*K+k] == 1 {
				p[n] = k
				break
			}
		}
	}
	if err := g.Validate(p); err != nil {
		return nil, nil, fmt.Errorf("layout: ILP produced invalid placement: %w", err)
	}
	return p, sol, nil
}

// --- Greedy resolver ---

// SolveGreedy resolves the graph with the fast heuristic the runtime uses
// for simple graphs ("simple graphs are usually trivial to solve", §5):
// Pull-groups are computed by union-find, each group is placed on the first
// mutually compatible device with remaining budget (largest-Price groups
// first), and Gang violations are repaired by pulling groups back to the
// host until a fixpoint. The result is feasible but not necessarily
// optimal; the X2 ablation quantifies the gap against the ILP.
func (g *Graph) SolveGreedy(obj Objective) (Placement, error) {
	n := len(g.Nodes)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range g.Edges {
		if e.Type == odf.Pull {
			union(e.From, e.To)
		}
	}

	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	// Sort groups by total price descending so expensive groups grab
	// budget first; stable order by root for determinism.
	type groupInfo struct {
		root    int
		members []int
		price   float64
	}
	var ordered []groupInfo
	for r, members := range groups {
		gi := groupInfo{root: r, members: members}
		for _, m := range members {
			gi.price += g.Nodes[m].Price
		}
		ordered = append(ordered, gi)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].price != ordered[j].price {
			return ordered[i].price > ordered[j].price
		}
		return ordered[i].root < ordered[j].root
	})

	K := g.K()
	budget := make([]float64, K)
	for k := 1; k < K; k++ {
		budget[k] = g.Targets[k].BusCapacity
	}
	p := make(Placement, n)
	for _, gi := range ordered {
		placed := false
		for k := 1; k < K && !placed; k++ {
			ok := true
			for _, m := range gi.members {
				if !g.Nodes[m].Compat[k] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if g.Targets[k].BusCapacity > 0 && gi.price > budget[k]+1e-9 {
				continue
			}
			for _, m := range gi.members {
				p[m] = k
			}
			if g.Targets[k].BusCapacity > 0 {
				budget[k] -= gi.price
			}
			placed = true
		}
		if !placed {
			for _, m := range gi.members {
				if !g.Nodes[m].Compat[0] {
					return nil, fmt.Errorf("layout: greedy cannot place %s (no device fits its Pull group, host incompatible)",
						g.Nodes[m].BindName)
				}
				p[m] = 0
			}
		}
	}

	// Gang repair: pull offloaded partners of host-bound nodes back to the
	// host (whole Pull group at a time) until stable.
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges {
			var demote int
			switch e.Type {
			case odf.Gang:
				if p[e.From] != 0 && p[e.To] == 0 {
					demote = e.From
				} else if p[e.To] != 0 && p[e.From] == 0 {
					demote = e.To
				} else {
					continue
				}
			case odf.AsymmetricGang:
				if p[e.From] != 0 && p[e.To] == 0 {
					demote = e.From
				} else {
					continue
				}
			default:
				continue
			}
			root := find(demote)
			for _, m := range groups[root] {
				if !g.Nodes[m].Compat[0] {
					return nil, fmt.Errorf("layout: greedy cannot satisfy gang constraints: %s must fall back to host but is host-incompatible",
						g.Nodes[m].BindName)
				}
				if p[m] != 0 {
					if g.Targets[p[m]].BusCapacity > 0 {
						budget[p[m]] += g.Nodes[m].Price
					}
					p[m] = 0
					changed = true
				}
			}
		}
	}

	if err := g.Validate(p); err != nil {
		return nil, fmt.Errorf("layout: greedy produced invalid placement: %w", err)
	}
	return p, nil
}
