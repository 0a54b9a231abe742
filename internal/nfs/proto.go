// Package nfs implements the minimal NFS-like remote file protocol the
// reproduction needs. The paper's testbed stores all media on a NAS and the
// "Smart Disk" is emulated by a programmable NIC running "an NFS Offcode
// that implements various parts of the NFS protocol" (§6.1); the Video
// Server likewise "reads the media from a NAS device using NFS".
//
// The protocol is a compact subset — LOOKUP, CREATE, READ, WRITE, GETATTR —
// over netsim datagrams. It is transport-cost-free by design: callers (host
// kernel NFS client, or the File Offcode running on a device) charge their
// own CPU cycles, so the same protocol code serves both placements.
package nfs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Port is the well-known NFS service port.
const Port uint16 = 2049

// Op identifies a protocol operation.
type Op uint8

// Protocol operations.
const (
	OpLookup Op = iota + 1
	OpCreate
	OpRead
	OpWrite
	OpGetAttr
	opReply = 0x80 // OR-ed into Op for responses
)

// Status codes carried in replies.
const (
	StatusOK uint8 = iota
	StatusNoEnt
	StatusStale
	StatusBadRequest
)

// ErrNoEnt is returned when a path or handle does not exist.
var ErrNoEnt = errors.New("nfs: no such file")

// ErrStale is returned for an unknown file handle.
var ErrStale = errors.New("nfs: stale file handle")

// ErrBadRequest is returned for malformed messages.
var ErrBadRequest = errors.New("nfs: bad request")

func statusErr(code uint8) error {
	switch code {
	case StatusOK:
		return nil
	case StatusNoEnt:
		return ErrNoEnt
	case StatusStale:
		return ErrStale
	case StatusBadRequest:
		return ErrBadRequest
	default:
		return fmt.Errorf("nfs: unknown status %d", code)
	}
}

// message is the wire form shared by requests and replies.
//
// Layout (little endian):
//
//	op        uint8
//	status    uint8   (replies; 0 in requests)
//	xid       uint64
//	handle    uint64
//	offset    uint64
//	count     uint32
//	replyPort uint16  (requests: where the client listens)
//	nameLen   uint16, name bytes
//	dataLen   uint32, data bytes
type message struct {
	op        Op
	status    uint8
	xid       uint64
	handle    uint64
	offset    uint64
	count     uint32
	replyPort uint16
	name      string
	data      []byte
}

// encode appends m's wire form to buf and returns the extended slice.
func (m *message) encode(buf []byte) []byte {
	buf = append(buf, byte(m.op), m.status)
	buf = binary.LittleEndian.AppendUint64(buf, m.xid)
	buf = binary.LittleEndian.AppendUint64(buf, m.handle)
	buf = binary.LittleEndian.AppendUint64(buf, m.offset)
	buf = binary.LittleEndian.AppendUint32(buf, m.count)
	buf = binary.LittleEndian.AppendUint16(buf, m.replyPort)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.name)))
	buf = append(buf, m.name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.data)))
	buf = append(buf, m.data...)
	return buf
}

// decodeMessage fills m from b. m.data aliases b, which the receiver of a
// datagram owns (netsim.Station.Send copies every payload).
func decodeMessage(b []byte, m *message) error {
	const fixed = 2 + 8 + 8 + 8 + 4 + 2 + 2
	if len(b) < fixed {
		return ErrBadRequest
	}
	nameLen := int(binary.LittleEndian.Uint16(b[32:]))
	rest := b[34:]
	if len(rest) < nameLen+4 {
		return ErrBadRequest
	}
	name := rest[:nameLen]
	rest = rest[nameLen:]
	dataLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < dataLen {
		return ErrBadRequest
	}
	*m = message{
		op:        Op(b[0]),
		status:    b[1],
		xid:       binary.LittleEndian.Uint64(b[2:]),
		handle:    binary.LittleEndian.Uint64(b[10:]),
		offset:    binary.LittleEndian.Uint64(b[18:]),
		count:     binary.LittleEndian.Uint32(b[26:]),
		replyPort: binary.LittleEndian.Uint16(b[30:]),
		name:      string(name),
	}
	if dataLen > 0 {
		m.data = rest[:dataLen:dataLen]
	}
	return nil
}
