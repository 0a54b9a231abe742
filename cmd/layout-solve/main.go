// Command layout-solve reads Offcode Description Files, builds the
// offloading layout graph against a device inventory, and resolves it with
// the greedy heuristic and the §5 ILP, printing both placements.
//
// Usage:
//
//	layout-solve [-objective offload|bus] file1.odf file2.odf ...
//
// With no files it solves the built-in TiVoPC Figure 8 layout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hydra/internal/device"
	"hydra/internal/layout"
	"hydra/internal/odf"
)

func main() {
	objFlag := flag.String("objective", "offload", "objective: offload|bus")
	flag.Parse()

	objective := layout.MaximizeOffload
	if *objFlag == "bus" {
		objective = layout.MaximizeBusUsage
	}

	targets := []layout.Target{
		{Name: "nic0", Class: device.Class{ID: 1, Name: "Network Device", Bus: "pci", MAC: "ethernet"}, BusCapacity: 50},
		{Name: "disk0", Class: device.Class{ID: 2, Name: "Storage Device", Bus: "pci"}, BusCapacity: 40},
		{Name: "gpu0", Class: device.Class{ID: 3, Name: "Display Device", Bus: "pci"}, BusCapacity: 60},
	}

	var odfs []*odf.ODF
	if flag.NArg() == 0 {
		odfs = builtinTivo()
		fmt.Println("no ODF files given; solving the built-in TiVoPC layout (Figure 8)")
	} else {
		for _, path := range flag.Args() {
			raw, err := os.ReadFile(path)
			if err != nil {
				log.Fatal(err)
			}
			o, err := odf.Parse(raw)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			odfs = append(odfs, o)
		}
	}

	g, err := layout.FromODFs(odfs, targets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d Offcodes, %d constraint edges, %d targets\n\n",
		len(g.Nodes), len(g.Edges), g.K())

	if p, err := g.SolveGreedy(objective); err != nil {
		fmt.Printf("greedy: %v\n", err)
	} else {
		fmt.Printf("greedy placement (objective %.0f):\n", g.ObjectiveValue(p, objective))
		print(g, p)
	}
	if p, sol, err := g.SolveILP(objective); err != nil {
		fmt.Printf("ILP: %v\n", err)
	} else {
		fmt.Printf("\nILP placement (objective %.0f, optimal, %d nodes):\n", sol.Objective, sol.Nodes)
		print(g, p)
	}
}

func print(g *layout.Graph, p layout.Placement) {
	for n := range g.Nodes {
		fmt.Printf("  %-24s → %s\n", g.Nodes[n].BindName, g.Targets[p[n]].Name)
	}
}

func builtinTivo() []*odf.ODF {
	mk := func(doc string) *odf.ODF {
		o, err := odf.Parse([]byte(doc))
		if err != nil {
			panic(err)
		}
		return o
	}
	return []*odf.ODF{
		mk(`<offcode><package><bindname>tivo.Streamer</bindname><GUID>1</GUID></package>
<sw-env>
 <import><bindname>tivo.Decoder</bindname><reference type="Gang"><GUID>2</GUID></reference></import>
 <import><bindname>tivo.File</bindname><reference type="Gang"><GUID>4</GUID></reference></import>
</sw-env>
<targets><device-class><name>Network Device</name></device-class><host-fallback>true</host-fallback></targets></offcode>`),
		mk(`<offcode><package><bindname>tivo.Decoder</bindname><GUID>2</GUID></package>
<sw-env><import><bindname>tivo.Display</bindname><reference type="Pull"><GUID>3</GUID></reference></import></sw-env>
<targets><device-class><name>Display Device</name></device-class><host-fallback>true</host-fallback></targets></offcode>`),
		mk(`<offcode><package><bindname>tivo.Display</bindname><GUID>3</GUID></package>
<targets><device-class><name>Display Device</name></device-class><host-fallback>true</host-fallback></targets></offcode>`),
		mk(`<offcode><package><bindname>tivo.File</bindname><GUID>4</GUID></package>
<targets><device-class><name>Storage Device</name></device-class><host-fallback>true</host-fallback></targets></offcode>`),
		mk(`<offcode><package><bindname>tivo.GUI</bindname><GUID>5</GUID></package>
<sw-env><import><bindname>tivo.Streamer</bindname><reference type="Link"><GUID>1</GUID></reference></import></sw-env>
<targets><host-fallback>true</host-fallback></targets></offcode>`),
	}
}
