package layout

import (
	"fmt"

	"hydra/internal/odf"
)

// FromODFs builds the layout graph the runtime derives from a set of parsed
// ODFs (§3.4: "the appropriate Offcode ODF files are processed by the
// runtime to construct the application's offloading layout graph").
//
// Compatibility vectors come from matching each ODF's target device classes
// against the installed targets; imports become edges, resolved by GUID
// first and bind name second. Every node's bus Price is 1.
func FromODFs(odfs []*odf.ODF, devices []Target) (*Graph, error) {
	g := NewGraph(devices...)
	index := map[string]int{}
	byGUID := map[uint64]int{}

	for _, o := range odfs {
		compat := make([]bool, g.K())
		compat[0] = o.HostFallback
		for k := 1; k < g.K(); k++ {
			for _, want := range o.Targets {
				if want.ToDeviceClass().Matches(g.Targets[k].Class) {
					compat[k] = true
					break
				}
			}
		}
		n, err := g.AddNode(o.BindName, o.GUID, 1, compat)
		if err != nil {
			return nil, fmt.Errorf("layout: %s: %w", o.BindName, err)
		}
		if _, dup := index[o.BindName]; dup {
			return nil, fmt.Errorf("layout: duplicate bind name %s", o.BindName)
		}
		index[o.BindName] = n
		if _, dup := byGUID[uint64(o.GUID)]; dup {
			return nil, fmt.Errorf("layout: duplicate GUID %v", o.GUID)
		}
		byGUID[uint64(o.GUID)] = n
	}

	for _, o := range odfs {
		from := index[o.BindName]
		for _, imp := range o.Imports {
			to := -1
			if imp.GUID.IsValid() {
				if n, ok := byGUID[uint64(imp.GUID)]; ok {
					to = n
				}
			}
			if to < 0 && imp.BindName != "" {
				if n, ok := index[imp.BindName]; ok {
					to = n
				}
			}
			if to < 0 {
				return nil, fmt.Errorf("layout: %s imports unknown Offcode %s (GUID %v)",
					o.BindName, imp.BindName, imp.GUID)
			}
			if to == from {
				return nil, fmt.Errorf("layout: %s imports itself", o.BindName)
			}
			if err := g.AddEdge(from, to, imp.Type); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
