package tivopc

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/mpeg"
	"hydra/internal/netsim"
	"hydra/internal/nfs"
	"hydra/internal/objfile"
	"hydra/internal/sim"
)

// Offcode GUIDs for the TiVoPC components (Table 1 / Figure 8).
const (
	GUIDServerStreamer guid.GUID = 9001
	GUIDFile           guid.GUID = 9002
	GUIDBroadcast      guid.GUID = 9003
	GUIDClientStreamer guid.GUID = 9011
	GUIDDecoder        guid.GUID = 9012
	GUIDDisplay        guid.GUID = 9013
	GUIDDiskFile       guid.GUID = 9014
)

func serverODF(bind string, g guid.GUID, imports string) string {
	return fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <sw-env>%s</sw-env>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`, bind, g, imports)
}

func clientODF(bind string, g guid.GUID, className string, imports string) string {
	return fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <sw-env>%s</sw-env>
  <targets>
    <device-class><name>%s</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`, bind, g, imports, className)
}

func pullImport(bind string, g guid.GUID) string {
	return fmt.Sprintf(`<import><file>/tivo/%s.odf</file><bindname>%s</bindname>
<reference type="Pull"><GUID>%d</GUID></reference></import>`, bind, bind, g)
}

func gangImport(bind string, g guid.GUID) string {
	return fmt.Sprintf(`<import><file>/tivo/%s.odf</file><bindname>%s</bindname>
<reference type="Gang"><GUID>%d</GUID></reference></import>`, bind, bind, g)
}

// --- Server-side Offcodes ---

// fileOffcode is the paper's File component: on the server it streams the
// movie from the NAS into device-local readahead buffers using the NFS
// protocol ("we have created an NFS Offcode that implements various parts
// of the NFS protocol", §6.1).
type fileOffcode struct {
	tb      *Testbed
	station *netsim.Station
	port    uint16
	path    string

	ctx      *core.Context
	cli      *nfs.Client
	handle   uint64
	size     int
	offset   uint64
	buffered [][]byte
	lowWater int
	pending  bool
	eof      bool
}

func (f *fileOffcode) Initialize(ctx *core.Context) error {
	f.ctx = ctx
	if ctx.Device == nil {
		return fmt.Errorf("tivo.File: host placement not supported in offloaded mode")
	}
	f.cli = nfs.NewClient(f.tb.Eng, f.station, "nas", f.port, 0)
	f.lowWater = 24
	// Reset transient streaming state: a re-instantiated (migrated) File
	// re-opens the movie and resumes from the checkpointed offset. Chunks
	// that were buffered in the dead device's memory are gone.
	f.handle, f.size = 0, 0
	f.buffered, f.pending, f.eof = nil, false, false
	return nil
}

// Checkpoint and Restore carry the stream position across a migration
// (core.Checkpointer), so the client resumes mid-movie instead of from the
// first frame.
func (f *fileOffcode) Checkpoint() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], f.offset)
	return b[:]
}

func (f *fileOffcode) Restore(state []byte) error {
	if len(state) != 8 {
		return fmt.Errorf("tivo.File: checkpoint of %d bytes", len(state))
	}
	f.offset = binary.LittleEndian.Uint64(state)
	return nil
}

func (f *fileOffcode) Start() error {
	f.cli.Lookup(f.path, func(h uint64, err error) {
		if err != nil {
			return
		}
		f.handle = h
		f.cli.GetAttr(h, func(size int, err error) {
			f.size = size
			f.refill()
		})
	})
	return nil
}

func (f *fileOffcode) Stop() error { return nil }

func (f *fileOffcode) refill() {
	if f.pending || f.eof || f.handle == 0 {
		return
	}
	if len(f.buffered) >= f.lowWater {
		return
	}
	f.pending = true
	f.cli.Read(f.handle, f.offset, 8192, func(data []byte, err error) {
		f.pending = false
		if err != nil || len(data) == 0 {
			f.eof = true
			return
		}
		f.offset += uint64(len(data))
		// Device firmware slices the reply into send-sized chunks.
		f.ctx.Device.Exec(2000, func() {
			for off := 0; off < len(data); off += ChunkBytes {
				end := off + ChunkBytes
				if end > len(data) {
					end = len(data)
				}
				f.buffered = append(f.buffered, data[off:end])
			}
			f.refill()
		})
	})
}

// Next pops the next buffered chunk (nil when dry) and keeps the readahead
// window warm.
func (f *fileOffcode) Next() []byte {
	if len(f.buffered) == 0 {
		f.refill()
		return nil
	}
	chunk := f.buffered[0]
	f.buffered = f.buffered[1:]
	f.refill()
	return chunk
}

// broadcastOffcode is the paper's Broadcast component: unreliable UDP
// transmission toward the client.
type broadcastOffcode struct {
	tb      *Testbed
	station *netsim.Station
	ctx     *core.Context
	Sent    int
}

func (b *broadcastOffcode) Initialize(ctx *core.Context) error { b.ctx = ctx; return nil }
func (b *broadcastOffcode) Start() error                       { return nil }
func (b *broadcastOffcode) Stop() error                        { return nil }

// Send transmits one chunk from the device.
func (b *broadcastOffcode) Send(dst string, data []byte) {
	b.ctx.Device.Exec(800, func() {
		_ = b.station.Send(dst, MediaPort, data)
		b.Sent++
	})
}

// serverStreamerOffcode paces the stream with the device's hardware timer:
// "a device can provide operation timeliness guarantees that cannot be
// matched by a general purpose kernel" (§1.1).
type serverStreamerOffcode struct {
	tb     *Testbed
	ctx    *core.Context
	file   *fileOffcode
	bcast  *broadcastOffcode
	stopAt sim.Time
	ticker *sim.Ticker
	Sent   int
}

func (s *serverStreamerOffcode) Initialize(ctx *core.Context) error {
	s.ctx = ctx
	return nil
}

func (s *serverStreamerOffcode) Start() error {
	// Resolve peers through the runtime, as an Offcode would via
	// hydra.Runtime.GetOffcode.
	fh, err := s.ctx.Runtime.GetOffcode("tivo.File")
	if err != nil {
		return err
	}
	bh, err := s.ctx.Runtime.GetOffcode("tivo.Broadcast")
	if err != nil {
		return err
	}
	s.file = fh.Behaviour().(*fileOffcode)
	s.bcast = bh.Behaviour().(*broadcastOffcode)

	s.ticker = s.ctx.Device.PeriodicTimer(ChunkPeriod, func() {
		if s.tb.Eng.Now() >= s.stopAt {
			s.ticker.Stop()
			return
		}
		s.ctx.Device.Exec(1500, func() {
			if chunk := s.file.Next(); chunk != nil {
				s.bcast.Send("client", chunk)
				s.Sent++
			}
		})
	})
	return nil
}

func (s *serverStreamerOffcode) Stop() error {
	if s.ticker != nil {
		s.ticker.Stop()
	}
	return nil
}

// stockServerOffcodes registers the server-side TiVoPC Offcodes with the
// server runtime's depot.
func stockServerOffcodes(tb *Testbed, stopAt sim.Time) (*serverStreamerOffcode, error) {
	d := tb.ServerDepot
	d.PutFile("/tivo/tivo.File.odf", []byte(serverODF("tivo.File", GUIDFile, "")))
	d.PutFile("/tivo/tivo.Broadcast.odf", []byte(serverODF("tivo.Broadcast", GUIDBroadcast, "")))
	d.PutFile("/tivo/tivo.Server.odf", []byte(serverODF("tivo.Server", GUIDServerStreamer,
		pullImport("tivo.File", GUIDFile)+pullImport("tivo.Broadcast", GUIDBroadcast))))

	for _, spec := range []struct {
		name string
		g    guid.GUID
		size int
	}{
		{"tivo.File", GUIDFile, 6 << 10},
		{"tivo.Broadcast", GUIDBroadcast, 2 << 10},
		{"tivo.Server", GUIDServerStreamer, 3 << 10},
	} {
		obj := objfile.Synthesize(spec.name, spec.g, spec.size,
			[]string{"hydra.Heap.Alloc", "hydra.Channel.Write", "hydra.Runtime.GetOffcode"})
		if err := d.RegisterObject(obj); err != nil {
			return nil, err
		}
	}

	streamer := &serverStreamerOffcode{tb: tb, stopAt: stopAt}
	if err := d.RegisterFactory(GUIDFile, func() any {
		return &fileOffcode{tb: tb, station: tb.ServerStation, port: 5003, path: MoviePath}
	}); err != nil {
		return nil, err
	}
	if err := d.RegisterFactory(GUIDBroadcast, func() any {
		return &broadcastOffcode{tb: tb, station: tb.ServerStation}
	}); err != nil {
		return nil, err
	}
	if err := d.RegisterFactory(GUIDServerStreamer, func() any { return streamer }); err != nil {
		return nil, err
	}
	return streamer, nil
}

// runOffloaded deploys the server Offcodes through the streaming service's
// application session and lets them stream autonomously.
func (h *ServerHarness) runOffloaded() error {
	streamer, err := stockServerOffcodes(h.tb, h.stopAt)
	if err != nil {
		return err
	}
	plan := h.tb.ServerApp.Plan()
	if err := plan.AddRoot("/tivo/tivo.Server.odf"); err != nil {
		return err
	}
	// The commit completes within the first simulated millisecond once the
	// caller runs the engine; its outcome is checked via DeployErr then.
	plan.Commit(h.deploy.arm())
	h.offloadedStreamer = streamer
	return nil
}

// --- Client-side Offcodes ---

// decoderOffcode runs the MPEG decode on the GPU ("the GPU may have
// specialized MPEG support on board", §6.3). It really decodes the stream
// and hands frames to the Display.
type decoderOffcode struct {
	tb      *Testbed
	ctx     *core.Context
	dec     *mpeg.Decoder
	display *displayOffcode
	Frames  int
}

func (d *decoderOffcode) Initialize(ctx *core.Context) error {
	d.ctx = ctx
	d.dec = mpeg.NewDecoder()
	return nil
}

func (d *decoderOffcode) Start() error {
	dh, err := d.ctx.Runtime.GetOffcode("tivo.Display")
	if err != nil {
		return err
	}
	d.display = dh.Behaviour().(*displayOffcode)
	return nil
}

func (d *decoderOffcode) Stop() error { return nil }

// Feed accepts a chunk that arrived at the GPU and decodes whatever
// completes. GPU hardware assist: ~4 cycles/pixel. Each frame's buffer goes
// back to the decoder once the Display has shown it.
func (d *decoderOffcode) Feed(chunk []byte) {
	frames := d.dec.Feed(chunk)
	if len(frames) == 0 {
		return
	}
	var cycles uint64
	for _, f := range frames {
		cycles += 20_000 + uint64(4*f.W*f.H)
	}
	d.ctx.Device.Exec(cycles, func() {
		for _, f := range frames {
			d.Frames++
			d.display.Show(f)
			d.dec.Release(f)
		}
	})
}

// displayOffcode owns the GPU framebuffer.
type displayOffcode struct {
	tb    *Testbed
	ctx   *core.Context
	Shown int
	// LastChecksum fingerprints the most recent frame.
	LastChecksum uint64
	// VerifiedOK / VerifyFail compare early frames pixel-for-pixel against
	// the source video (bounded to the first frames to cap cost).
	VerifiedOK int
	VerifyFail int
	src        []byte // the source frame a shown frame is compared with
}

func (d *displayOffcode) Initialize(ctx *core.Context) error {
	d.ctx = ctx
	if ctx.Device != nil {
		if _, err := ctx.Device.AllocMem(4 << 20); err != nil { // framebuffer
			return err
		}
	}
	return nil
}

func (d *displayOffcode) Start() error { return nil }
func (d *displayOffcode) Stop() error  { return nil }

// Show blits one frame into the framebuffer.
func (d *displayOffcode) Show(f mpeg.Frame) {
	d.Shown++
	d.LastChecksum = frameChecksum(f)
	if d.Shown <= 32 {
		d.src = mpeg.DrawFrame(MovieConfig(), f.Seq, d.src).Pix
		if bytes.Equal(f.Pix, d.src) {
			d.VerifiedOK++
		} else {
			d.VerifyFail++
		}
	}
}

func frameChecksum(f mpeg.Frame) uint64 {
	var h uint64 = 1469598103934665603
	for _, p := range f.Pix {
		h = (h ^ uint64(p)) * 1099511628211
	}
	return h
}

// diskFileOffcode is the Smart Disk's File component: it receives chunks
// over the bus and persists them to the NAS through its own NFS client and
// its own network port, with zero host involvement.
type diskFileOffcode struct {
	tb     *Testbed
	ctx    *core.Context
	cli    *nfs.Client
	handle uint64
	offset uint64
	queue  [][]byte
	busy   bool
	// Written counts bytes persisted to the NAS.
	Written int
}

func (f *diskFileOffcode) Initialize(ctx *core.Context) error {
	f.ctx = ctx
	f.cli = nfs.NewClient(f.tb.Eng, f.tb.ClientDiskStation, "nas", 5006, 0)
	return nil
}

func (f *diskFileOffcode) Start() error {
	f.cli.Create(RecordPath, func(h uint64, err error) {
		if err == nil {
			f.handle = h
			f.pump()
		}
	})
	return nil
}

func (f *diskFileOffcode) Stop() error { return nil }

// Record queues one chunk for persistence.
func (f *diskFileOffcode) Record(chunk []byte) {
	f.queue = append(f.queue, chunk)
	f.pump()
}

func (f *diskFileOffcode) pump() {
	if f.busy || f.handle == 0 || len(f.queue) == 0 {
		return
	}
	f.busy = true
	chunk := f.queue[0]
	n := copy(f.queue, f.queue[1:]) // keep the queue's array for later chunks
	f.queue[n] = nil
	f.queue = f.queue[:n]
	off := f.offset
	f.offset += uint64(len(chunk))
	f.ctx.Device.Exec(1200, func() {
		f.cli.Write(f.handle, off, chunk, func(n int, err error) {
			if err == nil {
				f.Written += n
			}
			f.busy = false
			f.pump()
		})
	})
}

// clientStreamerOffcode runs on the client NIC: each received packet is
// multicast by peer DMA to the GPU (Decoder) and the Smart Disk (File) —
// Figure 2's data flow, with no host memory crossing.
type clientStreamerOffcode struct {
	tb      *Testbed
	ctx     *core.Context
	decoder *decoderOffcode
	disk    *diskFileOffcode
	peers   []*device.Device // the GPU and the Smart Disk
}

func (s *clientStreamerOffcode) Initialize(ctx *core.Context) error {
	s.ctx = ctx
	return nil
}

func (s *clientStreamerOffcode) Start() error {
	dh, err := s.ctx.Runtime.GetOffcode("tivo.Decoder")
	if err != nil {
		return err
	}
	s.decoder = dh.Behaviour().(*decoderOffcode)
	fh, err := s.ctx.Runtime.GetOffcode("tivo.DiskFile")
	if err != nil {
		return err
	}
	s.disk = fh.Behaviour().(*diskFileOffcode)
	s.peers = []*device.Device{s.tb.ClientGPU, s.tb.ClientDisk}
	return nil
}

func (s *clientStreamerOffcode) Stop() error { return nil }

// Packet handles one arriving media packet on the NIC.
func (s *clientStreamerOffcode) Packet(data []byte) {
	s.ctx.Device.Exec(1200, func() {
		// One bus transaction reaches both peers (PCIe multicast, §1 fn.2).
		s.ctx.Device.DMAToPeers(s.peers, len(data), func() {
			s.decoder.Feed(data)
			s.disk.Record(data)
		})
	})
}
