package call

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"hydra/internal/guid"
	"hydra/internal/odf"
)

func checksumIface(t *testing.T) *odf.Interface {
	t.Helper()
	iface, err := odf.ParseInterface([]byte(`
<interface name="IChecksum" guid="0x2001">
  <method name="Compute">
    <in name="data" type="bytes"/>
    <in name="seed" type="uint64"/>
    <out name="sum" type="uint64"/>
  </method>
  <method name="Describe">
    <out name="text" type="string"/>
  </method>
</interface>`))
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

func TestCallRoundTrip(t *testing.T) {
	c := &Call{
		Iface:      0x2001,
		Method:     "Compute",
		Args:       []any{[]byte{1, 2, 3}, uint64(7), "tag", true, int64(-5), 3.25},
		ReturnDesc: 42,
	}
	wire, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iface != c.Iface || got.Method != c.Method || got.ReturnDesc != 42 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Args, c.Args) {
		t.Fatalf("args = %#v, want %#v", got.Args, c.Args)
	}
}

func TestIntNormalizedToInt64(t *testing.T) {
	c := &Call{Iface: 1, Method: "M", Args: []any{int(9)}}
	wire, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Unmarshal(wire)
	if v, ok := got.Args[0].(int64); !ok || v != 9 {
		t.Fatalf("arg = %#v, want int64(9)", got.Args[0])
	}
}

func TestMarshalUnsupported(t *testing.T) {
	_, err := Marshal(&Call{Iface: 1, Method: "M", Args: []any{map[string]int{}}})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	good, _ := Marshal(&Call{Iface: 1, Method: "M", Args: []any{"hello", int64(5)}})
	for cut := 0; cut < len(good); cut++ {
		if cut == 0 {
			if _, err := Unmarshal(nil); err == nil {
				t.Fatal("nil accepted")
			}
			continue
		}
		if _, err := Unmarshal(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r := &Reply{ReturnDesc: 9, Results: []any{uint64(77), "ok"}}
	wire, err := MarshalReply(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReply(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReturnDesc != 9 || got.Err != "" || !reflect.DeepEqual(got.Results, r.Results) {
		t.Fatalf("reply = %+v", got)
	}
}

func TestReplyError(t *testing.T) {
	r := &Reply{Err: "device on fire"}
	wire, _ := MarshalReply(r)
	got, err := UnmarshalReply(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != "device on fire" {
		t.Fatalf("err text = %q", got.Err)
	}
}

func TestProxyInvoke(t *testing.T) {
	p := NewProxy(checksumIface(t))
	c, err := p.Invoke("Compute", []byte{1, 2}, uint64(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Iface != 0x2001 || c.Method != "Compute" || len(c.Args) != 2 {
		t.Fatalf("call = %+v", c)
	}
}

func TestProxyInvokeCoercesInt(t *testing.T) {
	iface, _ := odf.ParseInterface([]byte(
		`<interface name="I" guid="1"><method name="M"><in name="a" type="int64"/></method></interface>`))
	p := NewProxy(iface)
	c, err := p.Invoke("M", 5)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Args[0].(int64); !ok || v != 5 {
		t.Fatalf("arg = %#v", c.Args[0])
	}
}

func TestProxyInvokeErrors(t *testing.T) {
	p := NewProxy(checksumIface(t))
	if _, err := p.Invoke("Nope"); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := p.Invoke("Compute", []byte{1}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := p.Invoke("Compute", "not-bytes", uint64(1)); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestDispatcher(t *testing.T) {
	iface := checksumIface(t)
	d := NewDispatcher(iface)
	err := d.Handle("Compute", func(args []any) ([]any, error) {
		data := args[0].([]byte)
		seed := args[1].(uint64)
		sum := seed
		for _, b := range data {
			sum += uint64(b)
		}
		return []any{sum}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	p := NewProxy(iface)
	c, _ := p.Invoke("Compute", []byte{1, 2, 3}, uint64(10))
	c.ReturnDesc = 5
	rep := d.Dispatch(c)
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if rep.ReturnDesc != 5 {
		t.Fatalf("return desc = %d", rep.ReturnDesc)
	}
	if rep.Results[0].(uint64) != 16 {
		t.Fatalf("sum = %v", rep.Results[0])
	}
}

func TestDispatcherErrors(t *testing.T) {
	iface := checksumIface(t)
	d := NewDispatcher(iface)
	if err := d.Handle("Ghost", nil); err == nil {
		t.Error("handler for unknown method registered")
	}
	rep := d.Dispatch(&Call{Iface: iface.GUID, Method: "Compute"})
	if rep.Err == "" {
		t.Error("unimplemented method dispatched")
	}
	rep = d.Dispatch(&Call{Iface: 0xdead, Method: "Compute"})
	if rep.Err == "" {
		t.Error("wrong interface dispatched")
	}
	d.Handle("Describe", func([]any) ([]any, error) { return nil, fmt.Errorf("boom") })
	rep = d.Dispatch(&Call{Iface: iface.GUID, Method: "Describe"})
	if rep.Err != "boom" {
		t.Errorf("handler error = %q", rep.Err)
	}
}

// Property: Calls with arbitrary supported arguments survive the wire.
func TestCallWireProperty(t *testing.T) {
	prop := func(iface uint64, desc uint64, method string, b bool, i int64, u uint64, f float64, s string, raw []byte) bool {
		if math.IsNaN(f) {
			f = 0
		}
		if len(method) > 100 {
			method = method[:100]
		}
		c := &Call{
			Iface: guid.GUID(guidSafe(iface)), Method: method,
			Args: []any{b, i, u, f, s, raw}, ReturnDesc: desc,
		}
		wire, err := Marshal(c)
		if err != nil {
			return false
		}
		got, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		if got.Method != c.Method || got.ReturnDesc != c.ReturnDesc {
			return false
		}
		if got.Args[0].(bool) != b || got.Args[1].(int64) != i || got.Args[2].(uint64) != u {
			return false
		}
		if got.Args[3].(float64) != f || got.Args[4].(string) != s {
			return false
		}
		gb := got.Args[5].([]byte)
		return bytes.Equal(gb, raw) || (len(gb) == 0 && len(raw) == 0)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func guidSafe(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}
