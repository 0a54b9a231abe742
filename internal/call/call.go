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

// valueSize is v's exact wire size: the tag plus the payload. It rejects
// what the wire cannot carry, so the writers after it cannot fail.
func valueSize(v any) (int, error) {
	switch x := v.(type) {
	case bool:
		return 1 + 1, nil
	case int, int64, uint64, float64:
		return 1 + 8, nil
	case string:
		if uint64(len(x)) > math.MaxUint32 {
			return 0, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(x))
		}
		return 1 + 4 + len(x), nil
	case []byte:
		if uint64(len(x)) > math.MaxUint32 {
			return 0, fmt.Errorf("%w: blob of %d bytes", ErrTooLarge, len(x))
		}
		return 1 + 4 + len(x), nil
	default:
		return 0, fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

// appendValue writes one value valueSize accepted.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case bool:
		if x {
			return append(b, tagBool, 1)
		}
		return append(b, tagBool, 0)
	case int:
		return binary.LittleEndian.AppendUint64(append(b, tagInt64), uint64(x))
	case int64:
		return binary.LittleEndian.AppendUint64(append(b, tagInt64), uint64(x))
	case uint64:
		return binary.LittleEndian.AppendUint64(append(b, tagUint64), x)
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(x))
	case string:
		b = binary.LittleEndian.AppendUint32(append(b, tagString), uint32(len(x)))
		return append(b, x...)
	default: // []byte, the one type left after valueSize
		blob := v.([]byte)
		b = binary.LittleEndian.AppendUint32(append(b, tagBytes), uint32(len(blob)))
		return append(b, blob...)
	}
}

// valuesSize sums the wire sizes of vals.
func valuesSize(vals []any) (int, error) {
	n := 0
	for _, v := range vals {
		s, err := valueSize(v)
		if err != nil {
			return 0, err
		}
		n += s
	}
	return n, nil
}

// reserve returns b with room for n more bytes, reallocating to exactly
// len(b)+n when it has less: a fresh buffer is never larger than its wire.
func reserve(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := make([]byte, len(b), len(b)+n)
	copy(nb, b)
	return nb
}

// nextValue splits the first encoded value off b: its tag, its payload
// (the fixed-width bytes, or a blob's contents) and the bytes after it.
func nextValue(b []byte) (tag byte, v, rest []byte, err error) {
	if len(b) < 1 {
		return 0, nil, nil, ErrBadWire
	}
	tag, b = b[0], b[1:]
	n := 8
	switch tag {
	case tagBool:
		n = 1
	case tagInt64, tagUint64, tagFloat64:
	case tagString, tagBytes:
		v, rest, err = readBlob(b)
		return tag, v, rest, err
	default:
		return 0, nil, nil, fmt.Errorf("%w: tag %d", ErrBadWire, tag)
	}
	if len(b) < n {
		return 0, nil, nil, ErrBadWire
	}
	return tag, b[:n], b[n:], nil
}

func readValue(b []byte) (any, []byte, error) {
	tag, v, rest, err := nextValue(b)
	if err != nil {
		return nil, nil, err
	}
	switch tag {
	case tagBool:
		return v[0] != 0, rest, nil
	case tagInt64:
		return int64(binary.LittleEndian.Uint64(v)), rest, nil
	case tagUint64:
		return binary.LittleEndian.Uint64(v), rest, nil
	case tagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(v)), rest, nil
	case tagString:
		return string(v), rest, nil
	default: // tagBytes
		return append([]byte(nil), v...), rest, nil
	}
}

// readValues decodes count values into dst's storage. A zero count
// yields nil, as a fresh decode does.
func readValues(dst []any, b []byte, count int) ([]any, error) {
	if count == 0 {
		return nil, nil
	}
	dst = dst[:0]
	for i := 0; i < count; i++ {
		v, rest, err := readValue(b)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		b = rest
	}
	return dst, nil
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

// Marshal serializes a Call into a buffer of exactly its wire size.
//
// Wire: 'C', iface u64, returnDesc u64, methodLen u16 + method,
// argc u16, tagged values. The u16 fields bound the method name and the
// argument count; exceeding either is ErrTooLarge, never a silent
// truncation (a truncated length would desynchronize the decoder into
// reading method bytes as argument tags).
func Marshal(c *Call) ([]byte, error) { return AppendCall(nil, c) }

// AppendCall appends c's wire form (see Marshal) to b, growing b only
// when it lacks room. On error b is returned unchanged.
func AppendCall(b []byte, c *Call) ([]byte, error) {
	if len(c.Method) > math.MaxUint16 {
		return b, fmt.Errorf("%w: method name of %d bytes", ErrTooLarge, len(c.Method))
	}
	if len(c.Args) > math.MaxUint16 {
		return b, fmt.Errorf("%w: %d arguments", ErrTooLarge, len(c.Args))
	}
	n, err := valuesSize(c.Args)
	if err != nil {
		return b, fmt.Errorf("call %s: %w", c.Method, err)
	}
	b = appendCallHead(reserve(b, 1+8+8+2+len(c.Method)+2+n), c.Iface, c.Method, c.ReturnDesc, len(c.Args))
	for _, a := range c.Args {
		b = appendValue(b, a)
	}
	return b, nil
}

func appendCallHead(b []byte, iface guid.GUID, method string, desc uint64, argc int) []byte {
	b = append(b, 'C')
	b = binary.LittleEndian.AppendUint64(b, uint64(iface))
	b = binary.LittleEndian.AppendUint64(b, desc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(method)))
	b = append(b, method...)
	return binary.LittleEndian.AppendUint16(b, uint16(argc))
}

// Unmarshal parses a serialized Call.
func Unmarshal(b []byte) (*Call, error) {
	c := &Call{}
	if err := UnmarshalInto(b, c); err != nil {
		return nil, err
	}
	return c, nil
}

// UnmarshalInto parses a serialized Call into c, reusing c's Args storage
// and keeping c.Method when it already holds the decoded name, so a
// caller-owned Call decodes without allocating for argument-free or
// fixed-width calls. On success c equals what Unmarshal returns; on error
// its contents are unspecified.
func UnmarshalInto(b []byte, c *Call) error {
	vals, argc, err := unmarshalHead(b, c)
	if err != nil {
		return err
	}
	c.Args, err = readValues(c.Args, vals, argc)
	return err
}

// unmarshalHead decodes all of a Call but its arguments, returning their
// count and their still-encoded bytes.
func unmarshalHead(b []byte, c *Call) ([]byte, int, error) {
	if len(b) < 1+8+8+2 || b[0] != 'C' {
		return nil, 0, ErrBadWire
	}
	c.Iface = guid.GUID(binary.LittleEndian.Uint64(b[1:]))
	c.ReturnDesc = binary.LittleEndian.Uint64(b[9:])
	mlen := int(binary.LittleEndian.Uint16(b[17:]))
	rest := b[19:]
	if len(rest) < mlen+2 {
		return nil, 0, ErrBadWire
	}
	if c.Method != string(rest[:mlen]) {
		c.Method = string(rest[:mlen])
	}
	rest = rest[mlen:]
	return rest[2:], int(binary.LittleEndian.Uint16(rest)), nil
}

// MarshalReply serializes a Reply into a buffer of exactly its wire size.
//
// Wire: 'R', returnDesc u64, errLen u16 + err, count u16, tagged values.
// As with Marshal, overflowing a u16 length field is ErrTooLarge rather
// than silent truncation.
func MarshalReply(r *Reply) ([]byte, error) { return AppendReply(nil, r) }

// AppendReply appends r's wire form (see MarshalReply) to b, growing b
// only when it lacks room. On error b is returned unchanged.
func AppendReply(b []byte, r *Reply) ([]byte, error) {
	if len(r.Err) > math.MaxUint16 {
		return b, fmt.Errorf("%w: error string of %d bytes", ErrTooLarge, len(r.Err))
	}
	if len(r.Results) > math.MaxUint16 {
		return b, fmt.Errorf("%w: %d results", ErrTooLarge, len(r.Results))
	}
	n, err := valuesSize(r.Results)
	if err != nil {
		return b, err
	}
	b = appendReplyHead(reserve(b, 1+8+2+len(r.Err)+2+n), r.ReturnDesc, r.Err, len(r.Results))
	for _, v := range r.Results {
		b = appendValue(b, v)
	}
	return b, nil
}

func appendReplyHead(b []byte, desc uint64, errText string, count int) []byte {
	b = append(b, 'R')
	b = binary.LittleEndian.AppendUint64(b, desc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(errText)))
	b = append(b, errText...)
	return binary.LittleEndian.AppendUint16(b, uint16(count))
}

// UnmarshalReply parses a serialized Reply.
func UnmarshalReply(b []byte) (*Reply, error) {
	r := &Reply{}
	if err := UnmarshalReplyInto(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

// UnmarshalReplyInto parses a serialized Reply into r, reusing r's
// Results storage and keeping r.Err when it already holds the decoded
// text (see UnmarshalInto). On error r's contents are unspecified.
func UnmarshalReplyInto(b []byte, r *Reply) error {
	vals, count, err := unmarshalReplyHead(b, r)
	if err != nil {
		return err
	}
	r.Results, err = readValues(r.Results, vals, count)
	return err
}

// unmarshalReplyHead decodes all of a Reply but its results, returning
// their count and their still-encoded bytes.
func unmarshalReplyHead(b []byte, r *Reply) ([]byte, int, error) {
	if len(b) < 1+8+2 || b[0] != 'R' {
		return nil, 0, ErrBadWire
	}
	r.ReturnDesc = binary.LittleEndian.Uint64(b[1:])
	elen := int(binary.LittleEndian.Uint16(b[9:]))
	rest := b[11:]
	if len(rest) < elen+2 {
		return nil, 0, ErrBadWire
	}
	if r.Err != string(rest[:elen]) {
		r.Err = string(rest[:elen])
	}
	rest = rest[elen:]
	return rest[2:], int(binary.LittleEndian.Uint16(rest)), nil
}

// --- Unboxed values, for fixed-shape protocols ---
//
// Call.Args and Reply.Results hold values as []any, and boxing an int64
// or copying a string out of the wire allocates. A protocol whose value
// shapes are fixed (the syscall plane) instead appends its head and each
// value itself, and decodes the head with the values left encoded, read
// one at a time with ReadInt64 and ReadString. The wire bytes are the
// same either way.

// AppendCallHead appends the wire form of a Call with argc arguments, up
// to its first argument; the caller appends exactly argc values after it.
// On error b is returned unchanged.
func AppendCallHead(b []byte, iface guid.GUID, method string, desc uint64, argc int) ([]byte, error) {
	if len(method) > math.MaxUint16 {
		return b, fmt.Errorf("%w: method name of %d bytes", ErrTooLarge, len(method))
	}
	if argc > math.MaxUint16 {
		return b, fmt.Errorf("%w: %d arguments", ErrTooLarge, argc)
	}
	return appendCallHead(b, iface, method, desc, argc), nil
}

// AppendReplyHead appends the wire form of a Reply with count results, up
// to its first result; the caller appends exactly count values after it.
// On error b is returned unchanged.
func AppendReplyHead(b []byte, desc uint64, errText string, count int) ([]byte, error) {
	if len(errText) > math.MaxUint16 {
		return b, fmt.Errorf("%w: error string of %d bytes", ErrTooLarge, len(errText))
	}
	if count > math.MaxUint16 {
		return b, fmt.Errorf("%w: %d results", ErrTooLarge, count)
	}
	return appendReplyHead(b, desc, errText, count), nil
}

// AppendInt64 appends one int64 value.
func AppendInt64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, tagInt64), uint64(v))
}

// AppendString appends one string value. On error b is returned
// unchanged.
func AppendString(b []byte, s string) ([]byte, error) {
	if uint64(len(s)) > math.MaxUint32 {
		return b, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(s))
	}
	b = binary.LittleEndian.AppendUint32(append(b, tagString), uint32(len(s)))
	return append(b, s...), nil
}

// UnmarshalHeadInto decodes b into c like UnmarshalInto, except that the
// arguments stay encoded: it returns their count and bytes, checked well
// formed, and leaves c.Args untouched.
func UnmarshalHeadInto(b []byte, c *Call) ([]byte, int, error) {
	vals, argc, err := unmarshalHead(b, c)
	if err == nil {
		err = checkValues(vals, argc)
	}
	return vals, argc, err
}

// UnmarshalReplyHeadInto decodes b into r like UnmarshalReplyInto, except
// that the results stay encoded: it returns their count and bytes, checked
// well formed, and leaves r.Results untouched.
func UnmarshalReplyHeadInto(b []byte, r *Reply) ([]byte, int, error) {
	vals, count, err := unmarshalReplyHead(b, r)
	if err == nil {
		err = checkValues(vals, count)
	}
	return vals, count, err
}

// checkValues walks count encoded values without decoding them, failing
// where readValues would.
func checkValues(b []byte, count int) error {
	for i := 0; i < count; i++ {
		var err error
		if _, _, b, err = nextValue(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadInt64 decodes one int64 value from the front of b and returns it
// with the bytes after it. A value of another type is ErrBadWire.
func ReadInt64(b []byte) (int64, []byte, error) {
	tag, v, rest, err := nextValue(b)
	if err == nil && tag != tagInt64 {
		err = ErrBadWire
	}
	if err != nil {
		return 0, nil, err
	}
	return int64(binary.LittleEndian.Uint64(v)), rest, nil
}

// ReadString decodes one string value from the front of b without
// copying it: the returned bytes alias b. A value of another type is
// ErrBadWire.
func ReadString(b []byte) ([]byte, []byte, error) {
	tag, v, rest, err := nextValue(b)
	if err == nil && tag != tagString {
		err = ErrBadWire
	}
	if err != nil {
		return nil, nil, err
	}
	return v, rest, nil
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
