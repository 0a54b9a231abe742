package nfs

import (
	"math/rand"
	"sort"

	"hydra/internal/netsim"
	"hydra/internal/sim"
)

// Store is the NAS's in-memory filesystem: flat paths to byte contents.
type Store struct {
	files map[string][]byte
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{files: make(map[string][]byte)} }

// Put creates or replaces a file.
func (s *Store) Put(path string, data []byte) {
	s.files[path] = append([]byte(nil), data...)
}

// Get returns a copy of the file contents and whether it exists.
func (s *Store) Get(path string) ([]byte, bool) {
	d, ok := s.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// Paths lists stored paths, sorted.
func (s *Store) Paths() []string {
	out := make([]string, 0, len(s.files))
	for p := range s.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// maxFileSize bounds the byte range a READ or WRITE may name (1 GiB,
// about 87 minutes of the §6.4 stream). Offsets arrive off the wire, so a
// request reaching past it is refused rather than indexed or allocated.
const maxFileSize = 1 << 30

// fileRange converts a request's offset and length into int bounds
// [off, end), reporting false when the range reaches past maxFileSize.
func fileRange(offset uint64, n int) (off, end int, ok bool) {
	if offset > maxFileSize || uint64(n) > maxFileSize-offset {
		return 0, 0, false
	}
	return int(offset), int(offset) + n, true
}

// ServerConfig models the NAS service time.
type ServerConfig struct {
	// BaseLatency is charged per request (lookup, metadata, scheduling).
	BaseLatency sim.Time
	// PerByte is charged per payload byte moved (media/disk throughput).
	PerByte sim.Time
	// MaxRead bounds a single READ reply payload.
	MaxRead int
	// JitterFrac adds uniform ±fraction variation to the service time,
	// modeling appliance-side queueing and disk variance.
	JitterFrac float64
}

// DefaultServerConfig approximates a lightly loaded NAS appliance:
// ~150 µs per op plus ~4 ns/byte (≈250 MB/s internal throughput).
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		BaseLatency: 150 * sim.Microsecond,
		PerByte:     4 * sim.Nanosecond,
		MaxRead:     8192,
	}
}

// Server is the NAS endpoint.
type Server struct {
	eng     *sim.Engine
	station *netsim.Station
	store   *Store
	cfg     ServerConfig
	rng     *rand.Rand

	handles    map[uint64]string
	byPath     map[string]uint64
	nextHandle uint64

	req, rep message  // the request being served and its reply
	wire     [][]byte // encoded-reply buffers no longer in flight

	// Requests counts ops served, for experiment readouts.
	Requests uint64
}

// NewServer attaches an NFS server to the station and begins serving.
func NewServer(eng *sim.Engine, station *netsim.Station, store *Store, cfg ServerConfig) *Server {
	s := &Server{
		eng: eng, station: station, store: store, cfg: cfg,
		rng:     eng.NewRand(2049),
		handles: make(map[uint64]string), byPath: make(map[string]uint64),
		nextHandle: 1,
	}
	station.Bind(Port, s.onPacket)
	return s
}

func (s *Server) onPacket(p netsim.Packet) {
	req := &s.req
	if err := decodeMessage(p.Payload, req); err != nil {
		return // malformed; drop like a real UDP service
	}
	reply := s.handle(req)
	// Model service time, then reply to the client's listening port.
	delay := s.cfg.BaseLatency + sim.Time(len(reply.data)+len(req.data))*s.cfg.PerByte
	if s.cfg.JitterFrac > 0 {
		delay = sim.Time(float64(delay) * (1 + s.cfg.JitterFrac*(2*s.rng.Float64()-1)))
	}
	// Encode at service time: a READ's range is copied out of the store
	// as it stands now, not when the delayed reply is sent.
	var buf []byte
	if k := len(s.wire) - 1; k >= 0 {
		buf, s.wire = s.wire[k], s.wire[:k]
	}
	wire := reply.encode(buf)
	src := p.Src
	port := req.replyPort
	s.eng.Schedule(delay, func() {
		_ = s.station.Send(src, port, wire)
		s.wire = append(s.wire, wire[:0])
	})
}

// handle serves req into the server's reply, which holds until the next
// call. A READ reply's data aliases the stored file.
func (s *Server) handle(req *message) *message {
	s.Requests++
	rep := &s.rep
	*rep = message{op: req.op | opReply, xid: req.xid}
	switch req.op {
	case OpLookup:
		if _, ok := s.store.files[req.name]; !ok {
			rep.status = StatusNoEnt
			return rep
		}
		rep.handle = s.handleFor(req.name)
	case OpCreate:
		if _, ok := s.store.files[req.name]; !ok {
			s.store.files[req.name] = nil
		}
		rep.handle = s.handleFor(req.name)
	case OpRead:
		path, ok := s.handles[req.handle]
		if !ok {
			rep.status = StatusStale
			return rep
		}
		data := s.store.files[path]
		off, end, ok := fileRange(req.offset, min(int(req.count), s.cfg.MaxRead))
		if !ok {
			rep.status = StatusBadRequest
			return rep
		}
		if off >= len(data) {
			return rep // EOF: empty read
		}
		rep.data = data[off:min(end, len(data))]
	case OpWrite:
		path, ok := s.handles[req.handle]
		if !ok {
			rep.status = StatusStale
			return rep
		}
		off, end, ok := fileRange(req.offset, len(req.data))
		if !ok {
			rep.status = StatusBadRequest
			return rep
		}
		data := s.store.files[path]
		if off-len(data) > s.cfg.MaxRead {
			// A hole past EOF wider than one request moves would have
			// one datagram zero-fill up to maxFileSize of memory.
			rep.status = StatusBadRequest
			return rep
		}
		if end > len(data) {
			// Amortized growth: appending the recording 1 KB at a time
			// must not copy the whole file on every write, so the
			// capacity at least doubles.
			if end > cap(data) {
				grown := make([]byte, len(data), max(end, 2*cap(data)))
				copy(grown, data)
				data = grown
			}
			n := len(data)
			data = data[:end]
			clear(data[n:]) // a hole past EOF reads as zeros
		}
		copy(data[off:], req.data)
		s.store.files[path] = data
		rep.count = uint32(len(req.data))
	case OpGetAttr:
		path, ok := s.handles[req.handle]
		if !ok {
			rep.status = StatusStale
			return rep
		}
		rep.offset = uint64(len(s.store.files[path])) // size rides in offset
	default:
		rep.status = StatusBadRequest
	}
	return rep
}

func (s *Server) handleFor(path string) uint64 {
	if h, ok := s.byPath[path]; ok {
		return h
	}
	h := s.nextHandle
	s.nextHandle++
	s.handles[h] = path
	s.byPath[path] = h
	return h
}
