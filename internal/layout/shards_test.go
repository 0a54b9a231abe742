package layout

import (
	"math"
	"testing"
)

// threeHostGraph builds a small cluster problem: a pinned frontend on h0,
// four workers of load 1, capacities forcing a spread, and edges from the
// frontend to every worker with one expensive link.
func threeHostGraph(t *testing.T) *ShardGraph {
	t.Helper()
	g := &ShardGraph{Hosts: []ShardHost{
		{Name: "h0", Capacity: 2},
		{Name: "h1", Capacity: 2},
		{Name: "h2", Capacity: 2},
	}}
	g.LinkCost = [][]float64{
		{0, 1, 10},
		{1, 0, 10},
		{10, 10, 0},
	}
	front, err := g.AddRoot("front", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{5, 4, 3, 2} {
		n, err := g.AddRoot("w", 1, -1)
		if err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Fatalf("root index %d, want %d", n, i+1)
		}
		if err := g.AddLink(front, n, w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestShardGreedyFeasibleAndDeterministic(t *testing.T) {
	g := threeHostGraph(t)
	p1, err := g.SolveShardsGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(g.CostOf(p1), 1) {
		t.Fatalf("greedy placement %v infeasible", p1)
	}
	if p1[0] != 0 {
		t.Fatalf("pinned frontend placed on host %d", p1[0])
	}
	p2, err := g.SolveShardsGreedy()
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("greedy not deterministic: %v vs %v", p1, p2)
		}
	}
}

func TestShardILPOptimalAndNoWorseThanGreedy(t *testing.T) {
	g := threeHostGraph(t)
	greedy, err := g.SolveShardsGreedy()
	if err != nil {
		t.Fatal(err)
	}
	opt, sol, err := g.SolveShardsILP()
	if err != nil {
		t.Fatal(err)
	}
	gc, oc := g.CostOf(greedy), g.CostOf(opt)
	if oc > gc+1e-9 {
		t.Fatalf("ILP cost %.3f worse than greedy %.3f", oc, gc)
	}
	// Capacity 2 per host over frontend(load 0)+4 workers means exactly two
	// hosts carry two workers each, or a 2/1/1 split; the optimum keeps the
	// heaviest edges off the expensive h2 links.
	if opt[0] != 0 {
		t.Fatalf("ILP moved the pinned frontend to %d", opt[0])
	}
	// The two heaviest workers (weights 5 and 4) must avoid h2: their edge
	// cost there (10×) dwarfs any alternative the capacities allow.
	for _, r := range []int{1, 2} {
		if opt[r] == 2 {
			t.Fatalf("ILP placed heavy worker %d on the expensive host: %v", r, opt)
		}
	}
	if negCost := -sol.Objective; math.Abs(negCost-oc) > 1e-6 {
		t.Fatalf("ILP objective %.6f disagrees with CostOf %.6f", negCost, oc)
	}
}

func TestShardCapacityInfeasible(t *testing.T) {
	g := &ShardGraph{Hosts: []ShardHost{{Name: "h0", Capacity: 1}}}
	for i := 0; i < 2; i++ {
		if _, err := g.AddRoot("r", 1, -1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.SolveShardsGreedy(); err == nil {
		t.Fatal("greedy accepted an over-capacity problem")
	}
	if _, _, err := g.SolveShardsILP(); err == nil {
		t.Fatal("ILP accepted an over-capacity problem")
	}
}

func TestShardCostOfRejectsPinViolation(t *testing.T) {
	g := &ShardGraph{Hosts: []ShardHost{{Name: "h0"}, {Name: "h1"}}}
	if _, err := g.AddRoot("pinned", 1, 1); err != nil {
		t.Fatal(err)
	}
	if c := g.CostOf(ShardPlacement{0}); !math.IsInf(c, 1) {
		t.Fatalf("pin violation cost = %v, want +Inf", c)
	}
	if c := g.CostOf(ShardPlacement{1}); c != 0 {
		t.Fatalf("valid placement cost = %v, want 0", c)
	}
}
