package odf

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary documents to Parse, the decoder odflint and
// every deployment run on depot contents: it must return an error or an
// ODF that satisfies the checks Parse promises, never panic. The seeds
// are this package's sample documents; the committed corpus adds the
// ODFs the examples, tivopc and the cluster forwarder stock.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleODF))
	f.Add([]byte(`<offcode><package><bindname>gui</bindname><GUID>9</GUID></package>
<targets><host-fallback>true</host-fallback></targets></offcode>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := Parse(data)
		if err != nil {
			return
		}
		if o.BindName == "" || o.BindName != strings.TrimSpace(o.BindName) {
			t.Fatalf("accepted bind name %q", o.BindName)
		}
		if !o.GUID.IsValid() {
			t.Fatal("accepted an invalid GUID")
		}
		for i, imp := range o.Imports {
			if imp.BindName == "" && !imp.GUID.IsValid() {
				t.Fatalf("accepted import %d with neither bind name nor GUID", i)
			}
			if strings.Contains(imp.Type.String(), "invalid") {
				t.Fatalf("accepted import %d with constraint %v", i, imp.Type)
			}
		}
		if len(o.Targets) == 0 && !o.HostFallback {
			t.Fatal("accepted an ODF with no target")
		}
	})
}

// FuzzParseInterface feeds arbitrary documents to ParseInterface: it must
// return an error or an interface whose name, GUID, method names and
// parameter types are valid, never panic. The committed corpus adds the
// IDL the examples and the call tests stock.
func FuzzParseInterface(f *testing.F) {
	f.Add([]byte(sampleIDL))
	f.Fuzz(func(t *testing.T, data []byte) {
		iface, err := ParseInterface(data)
		if err != nil {
			return
		}
		if iface.Name == "" || !iface.GUID.IsValid() {
			t.Fatalf("accepted interface %q with GUID %v", iface.Name, iface.GUID)
		}
		seen := make(map[string]bool)
		for _, m := range iface.Methods {
			if m.Name == "" || seen[m.Name] {
				t.Fatalf("accepted method name %q twice or empty", m.Name)
			}
			seen[m.Name] = true
			for _, p := range append(append([]Param(nil), m.Ins...), m.Outs...) {
				if !ValidParamType(p.Type) {
					t.Fatalf("accepted %s parameter type %q", m.Name, p.Type)
				}
			}
		}
	})
}
