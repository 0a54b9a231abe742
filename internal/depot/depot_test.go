package depot

import (
	"reflect"
	"testing"

	"hydra/internal/objfile"
	"hydra/internal/odf"
)

const odfDoc = `<offcode>
  <package><bindname>a</bindname><GUID>11</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`

const idlDoc = `<interface name="IA" guid="12"><method name="M"/></interface>`

func TestFiles(t *testing.T) {
	d := New()
	d.PutFile("/a.odf", []byte(odfDoc))
	d.PutFile("/ia.xml", []byte(idlDoc))
	if string(d.files["/a.odf"]) != odfDoc {
		t.Fatal("file missing")
	}
	if _, ok := d.files["/ghost"]; ok {
		t.Fatal("phantom file")
	}
	if len(d.files) != 2 {
		t.Fatalf("files = %v", d.files)
	}
}

func TestLoadODFCached(t *testing.T) {
	d := New()
	d.PutFile("/a.odf", []byte(odfDoc))
	o1, err := d.LoadODF("/a.odf")
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := d.LoadODF("/a.odf")
	if o1 != o2 {
		t.Fatal("ODF not cached")
	}
	// Replacing the file invalidates the cache.
	d.PutFile("/a.odf", []byte(odfDoc))
	o3, _ := d.LoadODF("/a.odf")
	if o3 == o1 {
		t.Fatal("cache not invalidated on PutFile")
	}
	if _, err := d.LoadODF("/ghost"); err == nil {
		t.Fatal("missing ODF loaded")
	}
	d.PutFile("/bad.odf", []byte("not xml"))
	if _, err := d.LoadODF("/bad.odf"); err == nil {
		t.Fatal("bad ODF loaded")
	}
	// A manifest built in code replaces the file and loads as given, and
	// a later file replaces it in turn.
	built := &odf.ODF{BindName: "a", GUID: 11, HostFallback: true}
	d.PutODF("/a.odf", built)
	if o, err := d.LoadODF("/a.odf"); err != nil || o != built {
		t.Fatalf("LoadODF after PutODF = %v, %v", o, err)
	}
	d.PutFile("/a.odf", []byte(odfDoc))
	if o, _ := d.LoadODF("/a.odf"); o == built || !reflect.DeepEqual(o, built) {
		t.Fatalf("LoadODF after PutFile = %+v, want a fresh parse equal to %+v", o, built)
	}
}

func TestObjectsAndFactories(t *testing.T) {
	d := New()
	obj := objfile.Synthesize("a", 11, 64, nil)
	if err := d.RegisterObject(obj); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterObject(obj); err == nil {
		t.Fatal("duplicate object accepted")
	}
	if _, ok := d.Object(11); !ok {
		t.Fatal("object missing")
	}
	if _, ok := d.Object(999); ok {
		t.Fatal("phantom object")
	}
	if err := d.RegisterFactory(11, func() any { return 42 }); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterFactory(11, func() any { return 43 }); err == nil {
		t.Fatal("duplicate factory accepted")
	}
	if err := d.RegisterFactory(12, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	f, ok := d.Factory(11)
	if !ok || f().(int) != 42 {
		t.Fatal("factory lookup broken")
	}
}
