package nfs

import (
	"errors"

	"hydra/internal/netsim"
	"hydra/internal/sim"
)

// ErrTimeout is reported when a request sees no reply within the timeout.
var ErrTimeout = errors.New("nfs: request timed out")

// Client speaks the protocol from one station toward a server station.
// It carries no CPU cost model: the entity hosting it (host kernel or device
// firmware) charges cycles around the calls, so the identical protocol code
// runs in both placements, exactly as the paper reuses its NFS Offcode.
type Client struct {
	eng     *sim.Engine
	station *netsim.Station
	server  string
	port    uint16
	timeout sim.Time
	nextXID uint64
	pending map[uint64]func(*message, error)
}

// NewClient creates a client on station talking to the named server station.
// port is the local reply port; choose a unique one per client. A zero
// timeout disables timeouts (appropriate on the lossless testbed network).
func NewClient(eng *sim.Engine, station *netsim.Station, server string, port uint16, timeout sim.Time) *Client {
	c := &Client{
		eng: eng, station: station, server: server, port: port,
		timeout: timeout, nextXID: 1,
		pending: make(map[uint64]func(*message, error)),
	}
	station.Bind(port, c.onPacket)
	return c
}

func (c *Client) onPacket(p netsim.Packet) {
	rep, err := decodeMessage(p.Payload)
	if err != nil {
		return
	}
	k, ok := c.pending[rep.xid]
	if !ok {
		return // late reply after timeout
	}
	delete(c.pending, rep.xid)
	if rep.status != StatusOK {
		k(nil, statusErr(rep.status))
		return
	}
	k(rep, nil)
}

func (c *Client) call(req *message, k func(*message, error)) {
	req.xid = c.nextXID
	req.replyPort = c.port
	c.nextXID++
	c.pending[req.xid] = k
	xid := req.xid
	if err := c.station.Send(c.server, Port, req.encode()); err != nil {
		delete(c.pending, xid)
		k(nil, err)
		return
	}
	if c.timeout > 0 {
		c.eng.Schedule(c.timeout, func() {
			if cb, still := c.pending[xid]; still {
				delete(c.pending, xid)
				cb(nil, ErrTimeout)
			}
		})
	}
}

// Lookup resolves a path to a file handle.
func (c *Client) Lookup(path string, k func(handle uint64, err error)) {
	c.call(&message{op: OpLookup, name: path}, func(rep *message, err error) {
		if err != nil {
			k(0, err)
			return
		}
		k(rep.handle, nil)
	})
}

// Create makes (or opens) a file and returns its handle.
func (c *Client) Create(path string, k func(handle uint64, err error)) {
	c.call(&message{op: OpCreate, name: path}, func(rep *message, err error) {
		if err != nil {
			k(0, err)
			return
		}
		k(rep.handle, nil)
	})
}

// Read fetches up to count bytes at offset. A short or empty slice means EOF.
func (c *Client) Read(handle, offset uint64, count int, k func(data []byte, err error)) {
	c.call(&message{op: OpRead, handle: handle, offset: offset, count: uint32(count)},
		func(rep *message, err error) {
			if err != nil {
				k(nil, err)
				return
			}
			k(rep.data, nil)
		})
}

// Write stores data at offset, extending the file as needed.
func (c *Client) Write(handle, offset uint64, data []byte, k func(n int, err error)) {
	c.call(&message{op: OpWrite, handle: handle, offset: offset, data: data},
		func(rep *message, err error) {
			if err != nil {
				k(0, err)
				return
			}
			k(int(rep.count), nil)
		})
}

// GetAttr reports the file size.
func (c *Client) GetAttr(handle uint64, k func(size int, err error)) {
	c.call(&message{op: OpGetAttr, handle: handle}, func(rep *message, err error) {
		if err != nil {
			k(0, err)
			return
		}
		k(int(rep.offset), nil)
	})
}
