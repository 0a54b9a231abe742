// Package depot implements the Offcode Depot (§4): the runtime's local
// library "used for storing the actual instances (object files) of the
// Offcodes", plus their ODF manifests and interface definitions.
//
// The depot stores three things per Offcode: the ODF document (by path, as
// ODF imports reference files), the HOBJ object file (by GUID), and the
// behaviour factory — the Go constructor that supplies the Offcode's logic
// once its binary has been "loaded" onto a target (see DESIGN.md's
// substitution note: the ISA is synthetic, the pipeline is real).
package depot

import (
	"fmt"

	"hydra/internal/guid"
	"hydra/internal/objfile"
	"hydra/internal/odf"
)

// Factory constructs a fresh behaviour instance for an Offcode. The
// returned value must implement core.Offcode; the type is `any` here to
// keep the depot free of a dependency cycle with the runtime.
type Factory func() any

// Depot is an in-memory Offcode library.
type Depot struct {
	files     map[string][]byte
	odfCache  map[string]*odf.ODF
	objects   map[guid.GUID]*objfile.Object
	factories map[guid.GUID]Factory
}

// New returns an empty depot.
func New() *Depot {
	return &Depot{
		files:     make(map[string][]byte),
		odfCache:  make(map[string]*odf.ODF),
		objects:   make(map[guid.GUID]*objfile.Object),
		factories: make(map[guid.GUID]Factory),
	}
}

// PutFile stores a file (ODF or IDL XML) at a path.
func (d *Depot) PutFile(path string, content []byte) {
	d.files[path] = append([]byte(nil), content...)
	delete(d.odfCache, path)
}

// LoadODF parses (and caches) the ODF at path.
func (d *Depot) LoadODF(path string) (*odf.ODF, error) {
	if o, ok := d.odfCache[path]; ok {
		return o, nil
	}
	raw, ok := d.files[path]
	if !ok {
		return nil, fmt.Errorf("depot: no such file %q", path)
	}
	o, err := odf.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("depot: %s: %w", path, err)
	}
	d.odfCache[path] = o
	return o, nil
}

// RegisterObject stores an Offcode binary by its GUID.
func (d *Depot) RegisterObject(o *objfile.Object) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if _, dup := d.objects[o.GUID]; dup {
		return fmt.Errorf("depot: object GUID %v already registered", o.GUID)
	}
	d.objects[o.GUID] = o
	return nil
}

// Object retrieves an Offcode binary.
func (d *Depot) Object(g guid.GUID) (*objfile.Object, bool) {
	o, ok := d.objects[g]
	return o, ok
}

// RegisterFactory stores the behaviour constructor for an Offcode.
func (d *Depot) RegisterFactory(g guid.GUID, f Factory) error {
	if f == nil {
		return fmt.Errorf("depot: nil factory for %v", g)
	}
	if _, dup := d.factories[g]; dup {
		return fmt.Errorf("depot: factory for %v already registered", g)
	}
	d.factories[g] = f
	return nil
}

// Factory retrieves the behaviour constructor.
func (d *Depot) Factory(g guid.GUID) (Factory, bool) {
	f, ok := d.factories[g]
	return f, ok
}
