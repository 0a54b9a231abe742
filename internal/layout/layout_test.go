package layout

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/odf"
)

func targets() []Target {
	return []Target{
		{Name: "nic0", Class: device.Class{ID: 1, Name: "Network Device", Bus: "pci", MAC: "ethernet"}},
		{Name: "disk0", Class: device.Class{ID: 2, Name: "Storage Device", Bus: "pci"}},
		{Name: "gpu0", Class: device.Class{ID: 3, Name: "Display Device", Bus: "pci"}},
	}
}

// tivoGraph models the paper's Figure 8 layout: Streamer (NIC) gang
// Streamer2 (disk), Streamer gang Decoder, Decoder pull Display (GPU),
// File pull Streamer2, GUI on host with Link edges only.
func tivoGraph(t *testing.T) (*Graph, map[string]int) {
	t.Helper()
	g := NewGraph(targets()...)
	all := func(ks ...int) []bool {
		c := make([]bool, g.K())
		for _, k := range ks {
			c[k] = true
		}
		return c
	}
	ids := map[string]int{}
	add := func(name string, id uint64, compat []bool) {
		n, err := g.AddNode(name, guid.GUID(id), 1, compat)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = n
	}
	add("gui", 1, all(0))             // host only
	add("streamerNIC", 2, all(0, 1))  // NIC or host
	add("streamerDisk", 3, all(0, 2)) // disk or host
	add("decoder", 4, all(0, 1, 3))   // NIC, GPU or host
	add("display", 5, all(0, 3))      // GPU or host
	add("file", 6, all(0, 2))         // disk or host

	mustEdge := func(a, b string, tp odf.ConstraintType) {
		if err := g.AddEdge(ids[a], ids[b], tp); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge("streamerNIC", "streamerDisk", odf.Gang)
	mustEdge("streamerNIC", "decoder", odf.Gang)
	mustEdge("decoder", "display", odf.Pull)
	mustEdge("file", "streamerDisk", odf.Pull)
	mustEdge("streamerNIC", "gui", odf.Link)
	return g, ids
}

func TestTivoILPFullOffload(t *testing.T) {
	g, ids := tivoGraph(t)
	p, _, err := g.SolveILP(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 8: everything except the GUI offloads.
	offloaded := 0
	for _, target := range p {
		if target != 0 {
			offloaded++
		}
	}
	if offloaded != 5 {
		t.Fatalf("offloaded %d of 6, want 5 (placement %v)", offloaded, p)
	}
	if p[ids["gui"]] != 0 {
		t.Fatal("GUI left the host")
	}
	if p[ids["streamerNIC"]] != 1 {
		t.Fatalf("NIC streamer on %d", p[ids["streamerNIC"]])
	}
	if p[ids["streamerDisk"]] != 2 || p[ids["file"]] != 2 {
		t.Fatalf("disk pair on %d/%d", p[ids["streamerDisk"]], p[ids["file"]])
	}
	// Decoder pulls with Display → both on the GPU.
	if p[ids["decoder"]] != 3 || p[ids["display"]] != 3 {
		t.Fatalf("decoder/display on %d/%d, want GPU", p[ids["decoder"]], p[ids["display"]])
	}
}

func TestTivoGreedyAlsoValid(t *testing.T) {
	g, _ := tivoGraph(t)
	p, err := g.SolveGreedy(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestGangForcesHost(t *testing.T) {
	// a (NIC-capable) gang b (host-only): both must stay on the host.
	g := NewGraph(targets()...)
	a, _ := g.AddNode("a", 1, 1, []bool{true, true, false, false})
	b, _ := g.AddNode("b", 2, 1, []bool{true, false, false, false})
	g.AddEdge(a, b, odf.Gang)
	p, _, err := g.SolveILP(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	if p[a] != 0 || p[b] != 0 {
		t.Fatalf("placement %v, want both host", p)
	}
	gp, err := g.SolveGreedy(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	if gp[a] != 0 || gp[b] != 0 {
		t.Fatalf("greedy placement %v, want both host", gp)
	}
}

func TestAsymmetricGang(t *testing.T) {
	// a →gang b. b host-only ⇒ a must stay. b device-capable: offloading b
	// alone is fine.
	g := NewGraph(targets()...)
	a, _ := g.AddNode("a", 1, 1, []bool{true, true, false, false})
	b, _ := g.AddNode("b", 2, 1, []bool{true, false, false, false})
	g.AddEdge(a, b, odf.AsymmetricGang)
	p, _, err := g.SolveILP(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	if p[a] != 0 {
		t.Fatalf("a offloaded despite host-bound b: %v", p)
	}

	g2 := NewGraph(targets()...)
	a2, _ := g2.AddNode("a", 1, 1, []bool{true, false, false, false}) // host-only
	b2, _ := g2.AddNode("b", 2, 1, []bool{true, true, false, false})
	g2.AddEdge(a2, b2, odf.AsymmetricGang)
	p2, _, err := g2.SolveILP(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	if p2[b2] == 0 {
		t.Fatalf("b not offloaded though asymmetric gang allows it: %v", p2)
	}
}

func TestPullIntersectsCompat(t *testing.T) {
	// Pull pair whose compat vectors only intersect at host.
	g := NewGraph(targets()...)
	a, _ := g.AddNode("a", 1, 1, []bool{true, true, false, false})
	b, _ := g.AddNode("b", 2, 1, []bool{true, false, true, false})
	g.AddEdge(a, b, odf.Pull)
	p, _, err := g.SolveILP(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	if p[a] != p[b] || p[a] != 0 {
		t.Fatalf("placement %v, want both host", p)
	}
}

func TestInfeasibleGraph(t *testing.T) {
	// Pull pair with disjoint compat and no host fallback.
	g := NewGraph(targets()...)
	a, _ := g.AddNode("a", 1, 1, []bool{false, true, false, false})
	b, _ := g.AddNode("b", 2, 1, []bool{false, false, true, false})
	g.AddEdge(a, b, odf.Pull)
	if _, _, err := g.SolveILP(MaximizeOffload); err == nil {
		t.Fatal("infeasible graph solved")
	}
	if _, err := g.SolveGreedy(MaximizeOffload); err == nil {
		t.Fatal("greedy solved infeasible graph")
	}
}

func TestBusBudget(t *testing.T) {
	devs := targets()
	devs[0].BusCapacity = 10
	g := NewGraph(devs...)
	// Three offcodes, prices 6,5,4 — only NIC-capable. Budget 10 fits 6+4.
	for i, price := range []float64{6, 5, 4} {
		if _, err := g.AddNode("oc"+string(rune('a'+i)), guid.GUID(i+1), price,
			[]bool{true, true, false, false}); err != nil {
			t.Fatal(err)
		}
	}
	p, sol, err := g.SolveILP(MaximizeBusUsage)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-10) > 1e-9 {
		t.Fatalf("objective = %v, want 10 (6+4)", sol.Objective)
	}
	if err := g.Validate(p); err != nil {
		t.Fatal(err)
	}
	// Greedy takes 6 then cannot fit 5, takes 4: same here; but validity is
	// the contract, optimality is not.
	gp, err := g.SolveGreedy(MaximizeBusUsage)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(gp); err != nil {
		t.Fatal(err)
	}
	if g.ObjectiveValue(gp, MaximizeBusUsage) > sol.Objective+1e-9 {
		t.Fatal("greedy beat the proven optimum")
	}
}

func TestGreedySuboptimalCaseExists(t *testing.T) {
	// Budget 10 with prices {6,5,5}: greedy (descending) takes 6 and stalls
	// at 6; ILP finds 5+5=10. This documents the §5 claim that greedy is
	// not always optimal.
	devs := []Target{{Name: "nic0", Class: device.Class{ID: 1, Name: "Network Device"}, BusCapacity: 10}}
	g := NewGraph(devs...)
	for i, price := range []float64{6, 5, 5} {
		g.AddNode("oc"+string(rune('a'+i)), guid.GUID(i+1), price, []bool{true, true})
	}
	p, sol, err := g.SolveILP(MaximizeBusUsage)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-10) > 1e-9 {
		t.Fatalf("ILP objective = %v, want 10", sol.Objective)
	}
	_ = p
	gp, err := g.SolveGreedy(MaximizeBusUsage)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ObjectiveValue(gp, MaximizeBusUsage); got >= sol.Objective {
		t.Fatalf("expected greedy to be suboptimal here, got %v", got)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	g, ids := tivoGraph(t)
	p := make(Placement, len(g.Nodes))
	// GUI (host-only) placed on NIC.
	p[ids["gui"]] = 1
	if err := g.Validate(p); err == nil {
		t.Fatal("compat violation not caught")
	}
	p[ids["gui"]] = 0
	// Pull violation: decoder on GPU, display on host.
	p[ids["decoder"]] = 3
	if err := g.Validate(p); err == nil {
		t.Fatal("pull violation not caught")
	}
	p[ids["display"]] = 3
	// Gang violation: decoder offloaded, streamerNIC on host.
	if err := g.Validate(p); err == nil {
		t.Fatal("gang violation not caught")
	}
	if err := g.Validate(p[:2]); err == nil {
		t.Fatal("short placement not caught")
	}
}

func TestFromODFs(t *testing.T) {
	socket := mustODF(t, `
<offcode>
  <package><bindname>net.Socket</bindname><GUID>100</GUID></package>
  <sw-env>
    <import><bindname>net.Checksum</bindname>
      <reference type="Pull"><GUID>101</GUID></reference>
    </import>
  </sw-env>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`)
	checksum := mustODF(t, `
<offcode>
  <package><bindname>net.Checksum</bindname><GUID>101</GUID></package>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`)
	g, err := FromODFs([]*odf.ODF{socket, checksum}, targets())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 2 || len(g.Edges) != 1 {
		t.Fatalf("graph: %d nodes %d edges", len(g.Nodes), len(g.Edges))
	}
	if g.Edges[0].Type != odf.Pull {
		t.Fatalf("edge type %v", g.Edges[0].Type)
	}
	// Compat: both match only nic0 (target 1) plus host.
	if !g.Nodes[0].Compat[0] || !g.Nodes[0].Compat[1] || g.Nodes[0].Compat[2] {
		t.Fatalf("compat %v", g.Nodes[0].Compat)
	}
	p, _, err := g.SolveILP(MaximizeOffload)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 1 || p[1] != 1 {
		t.Fatalf("placement %v, want both on nic0", p)
	}
}

func TestFromODFsErrors(t *testing.T) {
	orphan := mustODF(t, `
<offcode>
  <package><bindname>a</bindname><GUID>1</GUID></package>
  <sw-env><import><bindname>ghost</bindname><reference type="Pull"><GUID>999</GUID></reference></import></sw-env>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`)
	if _, err := FromODFs([]*odf.ODF{orphan}, targets()); err == nil {
		t.Fatal("unresolved import accepted")
	}

	dup := mustODF(t, `
<offcode>
  <package><bindname>a</bindname><GUID>1</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`)
	if _, err := FromODFs([]*odf.ODF{dup, dup}, targets()); err == nil {
		t.Fatal("duplicate bindname accepted")
	}
}

func mustODF(t *testing.T, doc string) *odf.ODF {
	t.Helper()
	o, err := odf.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// randomGraph builds a random feasible graph (host fallback everywhere).
func randomGraph(rng *rand.Rand) *Graph {
	devs := targets()
	g := NewGraph(devs...)
	n := rng.Intn(8) + 2
	for i := 0; i < n; i++ {
		compat := make([]bool, g.K())
		compat[0] = true
		for k := 1; k < g.K(); k++ {
			compat[k] = rng.Intn(2) == 0
		}
		g.AddNode("n", guid.GUID(i+1), float64(rng.Intn(5)+1), compat)
	}
	edges := rng.Intn(n * 2)
	for e := 0; e < edges; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.AddEdge(a, b, odf.ConstraintType(rng.Intn(4)))
	}
	return g
}

// Property: on random graphs, both resolvers produce placements that pass
// Validate, and the ILP objective is never below greedy's.
func TestResolversProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		gp, gerr := g.SolveGreedy(MaximizeOffload)
		ip, sol, ierr := g.SolveILP(MaximizeOffload)
		if ierr != nil {
			// Host fallback everywhere means always feasible.
			return false
		}
		if g.Validate(ip) != nil {
			return false
		}
		if gerr != nil {
			return false
		}
		if g.Validate(gp) != nil {
			return false
		}
		return sol.Objective >= g.ObjectiveValue(gp, MaximizeOffload)-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
