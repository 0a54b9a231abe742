package layout

// This file extends the §5 layout machinery one level up: from placing
// Offcodes on one host's devices to placing whole Offcode subgraphs
// ("shards") on the hosts of a cluster. The structure mirrors the
// single-host problem — binary placement variables, a greedy heuristic and
// a provably optimal ILP over internal/ilp — but the objective charges
// inter-host link costs instead of bus prices: an edge between two shards
// placed on different hosts costs its traffic weight times the link's
// per-unit cost (derived by the caller from netmodel-style cycle accounting
// plus link latency/bandwidth), while co-located shards communicate for
// free. Per-host capacities bound total shard load, which is how a
// coordinator forces an even spread across the machine pool.

import (
	"fmt"
	"math"

	"hydra/internal/ilp"
)

// ShardHost is one placement backend (a host machine with a runtime).
type ShardHost struct {
	// Name identifies the host in errors and renders.
	Name string
	// Capacity bounds the total Load of shards placed here (0 = unbounded).
	Capacity float64
}

// ShardRoot is one shard: a deployment root whose whole closure lands on a
// single host.
type ShardRoot struct {
	// Name identifies the shard (its root bind name).
	Name string
	// Load is the shard's placement weight against host capacities.
	Load float64
	// Pin, when ≥ 0, forces the shard onto that host index.
	Pin int
}

// ShardEdge is a communication edge between two shards. Weight is the
// traffic estimate in abstract cost units per unit link cost; an edge whose
// endpoints land on hosts h1 ≠ h2 contributes Weight·LinkCost[h1][h2] to
// the objective.
type ShardEdge struct {
	A, B   int
	Weight float64
}

// ShardGraph is the cluster placement problem.
type ShardGraph struct {
	Hosts []ShardHost
	Roots []ShardRoot
	Edges []ShardEdge
	// LinkCost[h1][h2] is the per-unit cost of traffic between hosts h1 and
	// h2; the diagonal must be zero (co-location is free). A nil matrix
	// means all inter-host links cost 1.
	LinkCost [][]float64
}

// ShardPlacement maps shard index → host index.
type ShardPlacement []int

// AddRoot appends a shard and returns its index. pin < 0 leaves the shard
// free; otherwise it is fixed to that host.
func (g *ShardGraph) AddRoot(name string, load float64, pin int) (int, error) {
	if pin >= len(g.Hosts) {
		return 0, fmt.Errorf("layout: shard %s pinned to host %d of %d", name, pin, len(g.Hosts))
	}
	if pin < 0 {
		pin = -1
	}
	g.Roots = append(g.Roots, ShardRoot{Name: name, Load: load, Pin: pin})
	return len(g.Roots) - 1, nil
}

// AddLink appends a communication edge between shards a and b.
func (g *ShardGraph) AddLink(a, b int, weight float64) error {
	if a < 0 || a >= len(g.Roots) || b < 0 || b >= len(g.Roots) || a == b {
		return fmt.Errorf("layout: bad shard edge %d→%d", a, b)
	}
	g.Edges = append(g.Edges, ShardEdge{A: a, B: b, Weight: weight})
	return nil
}

// linkCost reads the (possibly defaulted) cost of the h1↔h2 link.
func (g *ShardGraph) linkCost(h1, h2 int) float64 {
	if h1 == h2 {
		return 0
	}
	if g.LinkCost == nil {
		return 1
	}
	return g.LinkCost[h1][h2]
}

func (g *ShardGraph) validate() error {
	if len(g.Hosts) == 0 {
		return fmt.Errorf("layout: shard graph has no hosts")
	}
	if g.LinkCost != nil {
		if len(g.LinkCost) != len(g.Hosts) {
			return fmt.Errorf("layout: LinkCost has %d rows for %d hosts", len(g.LinkCost), len(g.Hosts))
		}
		for i, row := range g.LinkCost {
			if len(row) != len(g.Hosts) {
				return fmt.Errorf("layout: LinkCost row %d has %d entries for %d hosts", i, len(row), len(g.Hosts))
			}
			if row[i] != 0 {
				return fmt.Errorf("layout: LinkCost diagonal [%d][%d] must be zero", i, i)
			}
		}
	}
	return nil
}

// CostOf evaluates a placement: the summed link cost of every cut edge.
// Infeasible placements (capacity or pin violations) return +Inf.
func (g *ShardGraph) CostOf(p ShardPlacement) float64 {
	if len(p) != len(g.Roots) {
		return math.Inf(1)
	}
	load := make([]float64, len(g.Hosts))
	for r, h := range p {
		if h < 0 || h >= len(g.Hosts) {
			return math.Inf(1)
		}
		if g.Roots[r].Pin >= 0 && h != g.Roots[r].Pin {
			return math.Inf(1)
		}
		load[h] += g.Roots[r].Load
	}
	for h, hostLoad := range load {
		if cap := g.Hosts[h].Capacity; cap > 0 && hostLoad > cap+1e-9 {
			return math.Inf(1)
		}
	}
	cost := 0.0
	for _, e := range g.Edges {
		cost += e.Weight * g.linkCost(p[e.A], p[e.B])
	}
	return cost
}

// SolveShardsGreedy assigns shards in declaration order, each to the
// feasible host with the lowest incremental cut cost against the shards
// already placed (pinned shards are fixed first so free shards see their
// neighbours). Ties break toward the lower host index, which keeps the
// result deterministic for a fixed graph.
func (g *ShardGraph) SolveShardsGreedy() (ShardPlacement, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	p := make(ShardPlacement, len(g.Roots))
	for i := range p {
		p[i] = -1
	}
	load := make([]float64, len(g.Hosts))
	for r, root := range g.Roots {
		if root.Pin >= 0 {
			p[r] = root.Pin
			load[root.Pin] += root.Load
		}
	}
	for r, root := range g.Roots {
		if p[r] >= 0 {
			continue
		}
		best, bestCost := -1, math.Inf(1)
		for h := range g.Hosts {
			if cap := g.Hosts[h].Capacity; cap > 0 && load[h]+root.Load > cap+1e-9 {
				continue
			}
			cost := 0.0
			for _, e := range g.Edges {
				var peer int
				switch {
				case e.A == r:
					peer = e.B
				case e.B == r:
					peer = e.A
				default:
					continue
				}
				if p[peer] >= 0 {
					cost += e.Weight * g.linkCost(h, p[peer])
				}
			}
			// A vanishing load-balance bias spreads edge-free shards across
			// the pool instead of piling them on host 0; real link costs
			// always dominate it.
			cost += load[h] * 1e-9
			if cost < bestCost {
				best, bestCost = h, cost
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("layout: shard %s fits no host under the capacities", root.Name)
		}
		p[r] = best
		load[best] += root.Load
	}
	return p, nil
}

// SolveShardsILP finds the provably minimal-cut placement with the same
// branch-and-bound solver the §5.1 layout ILP uses. Variables are binary
// X[r·H+h] ("shard r on host h") plus, per edge and ordered host pair with
// a positive link cost, an indicator forced to 1 when the edge crosses that
// pair (Z ≥ X_a + X_b − 1); the objective maximizes the negated cut cost.
func (g *ShardGraph) SolveShardsILP() (ShardPlacement, *ilp.Solution, error) {
	if err := g.validate(); err != nil {
		return nil, nil, err
	}
	H, R := len(g.Hosts), len(g.Roots)
	x := func(r, h int) int { return r*H + h }
	p := &ilp.Problem{}

	type zvar struct {
		e, h1, h2 int
	}
	var zs []zvar
	nvars := R * H
	for e, edge := range g.Edges {
		for h1 := 0; h1 < H; h1++ {
			for h2 := 0; h2 < H; h2++ {
				if edge.Weight*g.linkCost(h1, h2) > 0 {
					zs = append(zs, zvar{e, h1, h2})
				}
			}
		}
	}
	p.NumVars = nvars + len(zs)
	p.Objective = make([]float64, p.NumVars)
	for i, z := range zs {
		p.Objective[nvars+i] = -g.Edges[z.e].Weight * g.linkCost(z.h1, z.h2)
	}

	// Each shard sits on exactly one host; pins and capacities are rows.
	for r := 0; r < R; r++ {
		row := make(map[int]float64, H)
		for h := 0; h < H; h++ {
			row[x(r, h)] = 1
		}
		p.AddConstraint(ilp.Constraint{
			Coeffs: row, Sense: ilp.EQ, RHS: 1,
			Label: fmt.Sprintf("place(%s)", g.Roots[r].Name),
		})
		if pin := g.Roots[r].Pin; pin >= 0 {
			p.AddConstraint(ilp.Constraint{
				Coeffs: map[int]float64{x(r, pin): 1}, Sense: ilp.EQ, RHS: 1,
				Label: fmt.Sprintf("pin(%s,%s)", g.Roots[r].Name, g.Hosts[pin].Name),
			})
		}
	}
	for h := 0; h < H; h++ {
		if g.Hosts[h].Capacity <= 0 {
			continue
		}
		row := make(map[int]float64)
		for r := 0; r < R; r++ {
			if g.Roots[r].Load > 0 {
				row[x(r, h)] = g.Roots[r].Load
			}
		}
		if len(row) > 0 {
			p.AddConstraint(ilp.Constraint{
				Coeffs: row, Sense: ilp.LE, RHS: g.Hosts[h].Capacity,
				Label: fmt.Sprintf("cap(%s)", g.Hosts[h].Name),
			})
		}
	}
	// Cut indicators: Z_e,h1,h2 ≥ X_a,h1 + X_b,h2 − 1. The objective's
	// negative coefficient pushes each Z to this lower bound.
	for i, z := range zs {
		p.AddConstraint(ilp.Constraint{
			Coeffs: map[int]float64{
				x(g.Edges[z.e].A, z.h1): 1,
				x(g.Edges[z.e].B, z.h2): 1,
				nvars + i:               -1,
			},
			Sense: ilp.LE, RHS: 1,
			Label: fmt.Sprintf("cut(e%d,%s,%s)", z.e, g.Hosts[z.h1].Name, g.Hosts[z.h2].Name),
		})
	}

	sol, err := ilp.Solve(p, ilp.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("layout: shard ILP: %w", err)
	}
	placement := make(ShardPlacement, R)
	for r := 0; r < R; r++ {
		placement[r] = -1
		for h := 0; h < H; h++ {
			if sol.X[x(r, h)] == 1 {
				placement[r] = h
				break
			}
		}
		if placement[r] < 0 {
			return nil, nil, fmt.Errorf("layout: shard ILP left %s unplaced", g.Roots[r].Name)
		}
	}
	return placement, sol, nil
}
