// Package call implements HYDRA's invocation machinery (§3.1, §4.1): Call
// objects that carry a serialized method invocation, the binary codec that
// marshals arguments, typed proxies synthesized from interface definitions
// ("transparent" invocation), manual encoders, and the device-side
// dispatcher that unmarshals a Call and runs the target method.
//
// A Call flows through a channel to the target device, is deserialized, the
// Offcode is invoked, and the return value travels back via the embedded
// return descriptor — mirroring the zero-copy channel walkthrough of §4.1.
package call

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hydra/internal/guid"
	"hydra/internal/odf"
)

// Call is one serialized method invocation.
type Call struct {
	Iface      guid.GUID // target interface
	Method     string
	Args       []any
	ReturnDesc uint64 // descriptor the callee uses to DMA the result back
}

// Reply is the result of an invocation.
type Reply struct {
	ReturnDesc uint64
	Results    []any
	Err        string // empty on success
}

// Marshaling errors.
var (
	ErrBadWire     = errors.New("call: malformed wire data")
	ErrUnsupported = errors.New("call: unsupported argument type")
	ErrTooLarge    = errors.New("call: value exceeds wire size limits")
)

// Value type tags on the wire.
const (
	tagBool byte = iota + 1
	tagInt64
	tagUint64
	tagFloat64
	tagString
	tagBytes
)

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case bool:
		b = append(b, tagBool)
		if x {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case int:
		return appendValue(b, int64(x))
	case int64:
		b = append(b, tagInt64)
		return binary.LittleEndian.AppendUint64(b, uint64(x)), nil
	case uint64:
		b = append(b, tagUint64)
		return binary.LittleEndian.AppendUint64(b, x), nil
	case float64:
		b = append(b, tagFloat64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		if uint64(len(x)) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(x))
		}
		b = append(b, tagString)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(x)))
		return append(b, x...), nil
	case []byte:
		if uint64(len(x)) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: blob of %d bytes", ErrTooLarge, len(x))
		}
		b = append(b, tagBytes)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(x)))
		return append(b, x...), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

func readValue(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrBadWire
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagBool:
		if len(b) < 1 {
			return nil, nil, ErrBadWire
		}
		return b[0] != 0, b[1:], nil
	case tagInt64:
		if len(b) < 8 {
			return nil, nil, ErrBadWire
		}
		return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagUint64:
		if len(b) < 8 {
			return nil, nil, ErrBadWire
		}
		return binary.LittleEndian.Uint64(b), b[8:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, ErrBadWire
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagString:
		s, rest, err := readBlob(b)
		return string(s), rest, err
	case tagBytes:
		s, rest, err := readBlob(b)
		if err != nil {
			return nil, nil, err
		}
		return append([]byte(nil), s...), rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: tag %d", ErrBadWire, tag)
	}
}

func readBlob(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrBadWire
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || n > len(b) {
		return nil, nil, ErrBadWire
	}
	return b[:n], b[n:], nil
}

// Marshal serializes a Call.
//
// Wire: 'C', iface u64, returnDesc u64, methodLen u16 + method,
// argc u16, tagged values. The u16 fields bound the method name and the
// argument count; exceeding either is ErrTooLarge, never a silent
// truncation (a truncated length would desynchronize the decoder into
// reading method bytes as argument tags).
func Marshal(c *Call) ([]byte, error) {
	if len(c.Method) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: method name of %d bytes", ErrTooLarge, len(c.Method))
	}
	if len(c.Args) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d arguments", ErrTooLarge, len(c.Args))
	}
	b := []byte{'C'}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Iface))
	b = binary.LittleEndian.AppendUint64(b, c.ReturnDesc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Method)))
	b = append(b, c.Method...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Args)))
	var err error
	for _, a := range c.Args {
		if b, err = appendValue(b, a); err != nil {
			return nil, fmt.Errorf("call %s: %w", c.Method, err)
		}
	}
	return b, nil
}

// Unmarshal parses a serialized Call.
func Unmarshal(b []byte) (*Call, error) {
	if len(b) < 1+8+8+2 || b[0] != 'C' {
		return nil, ErrBadWire
	}
	c := &Call{Iface: guid.GUID(binary.LittleEndian.Uint64(b[1:]))}
	c.ReturnDesc = binary.LittleEndian.Uint64(b[9:])
	mlen := int(binary.LittleEndian.Uint16(b[17:]))
	rest := b[19:]
	if len(rest) < mlen+2 {
		return nil, ErrBadWire
	}
	c.Method = string(rest[:mlen])
	rest = rest[mlen:]
	argc := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	for i := 0; i < argc; i++ {
		v, r, err := readValue(rest)
		if err != nil {
			return nil, err
		}
		c.Args = append(c.Args, v)
		rest = r
	}
	return c, nil
}

// MarshalReply serializes a Reply.
//
// Wire: 'R', returnDesc u64, errLen u16 + err, count u16, tagged values.
// As with Marshal, overflowing a u16 length field is ErrTooLarge rather
// than silent truncation.
func MarshalReply(r *Reply) ([]byte, error) {
	if len(r.Err) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: error string of %d bytes", ErrTooLarge, len(r.Err))
	}
	if len(r.Results) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d results", ErrTooLarge, len(r.Results))
	}
	b := []byte{'R'}
	b = binary.LittleEndian.AppendUint64(b, r.ReturnDesc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Err)))
	b = append(b, r.Err...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Results)))
	var err error
	for _, v := range r.Results {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// UnmarshalReply parses a serialized Reply.
func UnmarshalReply(b []byte) (*Reply, error) {
	if len(b) < 1+8+2 || b[0] != 'R' {
		return nil, ErrBadWire
	}
	r := &Reply{ReturnDesc: binary.LittleEndian.Uint64(b[1:])}
	elen := int(binary.LittleEndian.Uint16(b[9:]))
	rest := b[11:]
	if len(rest) < elen+2 {
		return nil, ErrBadWire
	}
	r.Err = string(rest[:elen])
	rest = rest[elen:]
	count := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	for i := 0; i < count; i++ {
		v, rr, err := readValue(rest)
		if err != nil {
			return nil, err
		}
		r.Results = append(r.Results, v)
		rest = rr
	}
	return r, nil
}

// --- Proxy: transparent invocation (§3.1) ---

// Proxy builds type-checked Calls from an interface definition. "All
// interface methods return a Call object that contains the relevant method
// information including the serialized input parameters."
type Proxy struct {
	iface *odf.Interface
}

// NewProxy wraps an interface definition.
func NewProxy(iface *odf.Interface) *Proxy { return &Proxy{iface: iface} }

// Invoke validates args against the method signature and produces a Call.
func (p *Proxy) Invoke(method string, args ...any) (*Call, error) {
	m, ok := p.iface.Method(method)
	if !ok {
		return nil, fmt.Errorf("call: interface %s has no method %s", p.iface.Name, method)
	}
	if len(args) != len(m.Ins) {
		return nil, fmt.Errorf("call: %s.%s takes %d arguments, got %d",
			p.iface.Name, method, len(m.Ins), len(args))
	}
	norm := make([]any, len(args))
	for i, a := range args {
		v, err := coerce(a, m.Ins[i].Type)
		if err != nil {
			return nil, fmt.Errorf("call: %s.%s argument %s: %w",
				p.iface.Name, method, m.Ins[i].Name, err)
		}
		norm[i] = v
	}
	return &Call{Iface: p.iface.GUID, Method: method, Args: norm}, nil
}

func coerce(v any, t odf.ParamType) (any, error) {
	switch t {
	case odf.TypeBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case odf.TypeInt64:
		switch x := v.(type) {
		case int:
			return int64(x), nil
		case int64:
			return x, nil
		}
	case odf.TypeUint64:
		if u, ok := v.(uint64); ok {
			return u, nil
		}
	case odf.TypeFloat64:
		if f, ok := v.(float64); ok {
			return f, nil
		}
	case odf.TypeString:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case odf.TypeBytes:
		if b, ok := v.([]byte); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: have %T, want %s", ErrUnsupported, v, t)
}

// --- Dispatcher: device-side invocation ---

// Handler executes one method: it receives the deserialized arguments and
// returns results or an error.
type Handler func(args []any) ([]any, error)

// Dispatcher routes Calls for one interface to registered handlers.
type Dispatcher struct {
	iface    *odf.Interface
	handlers map[string]Handler
}

// NewDispatcher creates a dispatcher for the interface.
func NewDispatcher(iface *odf.Interface) *Dispatcher {
	return &Dispatcher{iface: iface, handlers: make(map[string]Handler)}
}

// Handle registers a method handler; the method must exist on the interface.
func (d *Dispatcher) Handle(method string, h Handler) error {
	if _, ok := d.iface.Method(method); !ok {
		return fmt.Errorf("call: interface %s has no method %s", d.iface.Name, method)
	}
	d.handlers[method] = h
	return nil
}

// Dispatch executes a Call and builds the Reply (never nil).
func (d *Dispatcher) Dispatch(c *Call) *Reply {
	rep := &Reply{ReturnDesc: c.ReturnDesc}
	if c.Iface != d.iface.GUID {
		rep.Err = fmt.Sprintf("interface %v not served here (serving %v)", c.Iface, d.iface.GUID)
		return rep
	}
	h, ok := d.handlers[c.Method]
	if !ok {
		rep.Err = fmt.Sprintf("method %s not implemented", c.Method)
		return rep
	}
	results, err := h(c.Args)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Results = results
	return rep
}
