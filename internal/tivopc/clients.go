package tivopc

import (
	"fmt"

	"hydra/internal/cache"
	"hydra/internal/core"
	"hydra/internal/guid"
	"hydra/internal/mpeg"
	"hydra/internal/netsim"
	"hydra/internal/nfs"
	"hydra/internal/objfile"
)

// ClientKind selects the Video Client implementation (§6.4, Table 4).
type ClientKind int

// Client variants.
const (
	// IdleClient receives nothing; it is the paper's "Idle Client" row.
	IdleClient ClientKind = iota
	// UserspaceClient processes every packet on the host: interrupt,
	// kernel→user copy, software MPEG decode, display blit, and a
	// recording write back to storage.
	UserspaceClient
	// OffloadedClient runs everything on peripherals: NIC → (GPU, Smart
	// Disk) peer DMA, GPU decode, disk-side NFS recording.
	OffloadedClient
)

func (k ClientKind) String() string {
	switch k {
	case IdleClient:
		return "Idle Client"
	case UserspaceClient:
		return "User-space Client"
	case OffloadedClient:
		return "Offloaded Client"
	}
	return "unknown"
}

// ClientHarness drives one client variant and records arrivals.
type ClientHarness struct {
	tb   *Testbed
	kind ClientKind

	Arrivals *ArrivalRecorder

	// Host-decode state (user-space variant).
	dec           *mpeg.Decoder
	FramesDecoded int

	// Offloaded components, for end-to-end verification.
	Streamer *clientStreamerOffcode
	Decoder  *decoderOffcode
	Display  *displayOffcode
	DiskFile *diskFileOffcode

	// deploy tracks the offloaded variant's commit outcome (the other
	// variants never arm it).
	deploy deployOutcome
}

// DeployErr reports how the offloaded client's deployment commit settled
// (always nil for the other variants). Check it after the engine has run.
func (h *ClientHarness) DeployErr() error { return h.deploy.Err() }

// StartClient wires the chosen client variant into the testbed. The
// returned harness exposes arrival times (jitter) and decode progress.
func StartClient(tb *Testbed, kind ClientKind) (*ClientHarness, error) {
	h := &ClientHarness{tb: tb, kind: kind, Arrivals: &ArrivalRecorder{}}
	switch kind {
	case IdleClient:
		// Record arrivals only; no processing. (Used when measuring
		// server-side effects with a quiet client, and for the idle rows.)
		tb.ClientStation.Bind(MediaPort, func(p packet) {
			h.Arrivals.Times = append(h.Arrivals.Times, tb.Eng.Now())
		})
	case UserspaceClient:
		h.runUserspace()
	case OffloadedClient:
		if err := h.runOffloaded(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("tivopc: unknown client kind %d", kind)
	}
	return h, nil
}

type packet = netsim.Packet

// --- User-space client ---
//
// Per-packet path: NIC DMA into a kernel ring buffer (invalidating those
// lines), RX interrupt, kernel protocol processing, copy_to_user, then the
// Streamer/Decoder/Display pipeline in user space. Decoding is real (the
// same mpeg.Decoder), with modeled CPU cycles and an L2-visible working
// set; each packet is also written back to storage through the kernel NFS
// client (the recording path).
func (h *ClientHarness) runUserspace() {
	tb := h.tb
	task := tb.Client.NewTask("tivo-client")
	h.dec = mpeg.NewDecoder()

	rxRing := tb.Client.Alloc(64 << 10)
	userBuf := tb.Client.Alloc(ChunkBytes)
	writeBuf := tb.Client.Alloc(ChunkBytes)
	// Decoder working set: current frame + two references (≈230 kB at
	// QVGA). Its hot loops are L1/L2 resident between frames, so the
	// L2-visible traffic per frame is a small slice of it; the paper's
	// "+12% misses, much of [it] due to the MPEG decoding process" is
	// reproduced by the DMA-fresh payload copies plus this slice.
	cfg := MovieConfig()
	wsBytes := mpeg.DecodeWorkingSetBytes(cfg.W, cfg.H)
	decodeWS := tb.Client.Alloc(wsBytes)
	decodeTouch := 4 << 10 // L2-visible bytes per decoded frame

	nfsCli := nfs.NewClient(tb.Eng, tb.ClientStation, "nas", 5005, 0)
	var recHandle uint64
	nfsCli.Create(RecordPath, func(hd uint64, err error) { recHandle = hd })
	var recOffset uint64
	ringOff := uint64(0)

	tb.ClientStation.Bind(MediaPort, func(p packet) {
		h.Arrivals.Times = append(h.Arrivals.Times, tb.Eng.Now())
		data := p.Payload

		// NIC deposits the packet and raises an interrupt.
		slot := rxRing + ringOff
		ringOff = (ringOff + uint64(len(data))) % (60 << 10)
		tb.ClientNIC.DMAToHost(slot, len(data), nil)
		tb.ClientNIC.InterruptHost(3000, nil)

		// Kernel RX processing + copy to the application.
		task.Syscall(8000, func() {
			task.Copy(cache.Kernel, slot, userBuf, len(data), func() {
				// Streamer extracts the payload; Decoder consumes it.
				frames := h.dec.Feed(data)
				var cycles uint64
				for _, f := range frames {
					cycles += mpeg.DecodeCostCycles(f.W, f.H, mpeg.TypeP)
				}
				if len(frames) > 0 {
					off := uint64(h.FramesDecoded%(wsBytes/decodeTouch)) * uint64(decodeTouch)
					task.TouchRange(cache.User, decodeWS+off, decodeTouch)
				}
				task.Compute(cycles, func() {
					for _, f := range frames {
						h.FramesDecoded++
						// Display: blit to the GPU aperture
						// (write-combining: costs cycles, not L2).
						task.Compute(tb.Client.CopyCycles(len(f.Pix)), nil)
					}
				})

				// Recording path: write() the packet to storage.
				task.Copy(cache.Kernel, userBuf, writeBuf, len(data), nil)
				task.Syscall(6000, func() {
					if recHandle != 0 {
						off := recOffset
						recOffset += uint64(len(data))
						tb.ClientNIC.DMAFromHost(writeBuf, len(data), func() {
							nfsCli.Write(recHandle, off, data, func(int, error) {})
						})
					}
				})
			})
		})
	})
}

// --- Offloaded client ---

func clientPullGang() string {
	return gangImport("tivo.Decoder", GUIDDecoder) +
		gangImport("tivo.DiskFile", GUIDDiskFile)
}

// stockClientOffcodes registers the client-side Offcodes (Figure 8's
// layout: Streamer on the NIC ganged with Decoder and the disk-side File;
// Decoder pulled with Display on the GPU).
func stockClientOffcodes(tb *Testbed) error {
	d := tb.ClientDepot
	d.PutFile("/tivo/tivo.Display.odf", []byte(clientODF("tivo.Display", GUIDDisplay, "Display Device", "")))
	d.PutFile("/tivo/tivo.Decoder.odf", []byte(clientODF("tivo.Decoder", GUIDDecoder, "Display Device",
		pullImport("tivo.Display", GUIDDisplay))))
	d.PutFile("/tivo/tivo.DiskFile.odf", []byte(clientODF("tivo.DiskFile", GUIDDiskFile, "Storage Device", "")))
	d.PutFile("/tivo/tivo.ClientStreamer.odf", []byte(clientODF("tivo.ClientStreamer", GUIDClientStreamer,
		"Network Device", clientPullGang())))

	for _, spec := range []struct {
		name string
		g    guid.GUID
		size int
	}{
		{"tivo.Display", GUIDDisplay, 2 << 10},
		{"tivo.Decoder", GUIDDecoder, 12 << 10},
		{"tivo.DiskFile", GUIDDiskFile, 6 << 10},
		{"tivo.ClientStreamer", GUIDClientStreamer, 3 << 10},
	} {
		obj := objfile.Synthesize(spec.name, spec.g, spec.size,
			[]string{"hydra.Heap.Alloc", "hydra.Channel.Write", "hydra.Runtime.GetOffcode"})
		if err := d.RegisterObject(obj); err != nil {
			return err
		}
	}
	return nil
}

func (h *ClientHarness) runOffloaded() error {
	tb := h.tb
	if err := stockClientOffcodes(tb); err != nil {
		return err
	}
	d := tb.ClientDepot
	h.Display = &displayOffcode{tb: tb}
	h.Decoder = &decoderOffcode{tb: tb}
	h.DiskFile = &diskFileOffcode{tb: tb}
	h.Streamer = &clientStreamerOffcode{tb: tb}
	if err := d.RegisterFactory(GUIDDisplay, func() any { return h.Display }); err != nil {
		return err
	}
	if err := d.RegisterFactory(GUIDDecoder, func() any { return h.Decoder }); err != nil {
		return err
	}
	if err := d.RegisterFactory(GUIDDiskFile, func() any { return h.DiskFile }); err != nil {
		return err
	}
	if err := d.RegisterFactory(GUIDClientStreamer, func() any { return h.Streamer }); err != nil {
		return err
	}

	plan := tb.ClientApp.Plan()
	if err := plan.AddRoot("/tivo/tivo.ClientStreamer.odf"); err != nil {
		return err
	}
	settle := h.deploy.arm()
	plan.Commit(func(dep *core.Deployment, err error) {
		settle(dep, err)
		if err != nil {
			return
		}
		// The NIC's RX path hands media packets to the Streamer Offcode.
		tb.ClientStation.Bind(MediaPort, func(p packet) {
			h.Arrivals.Times = append(h.Arrivals.Times, tb.Eng.Now())
			h.Streamer.Packet(p.Payload)
		})
	})
	return nil
}

// VerifyPlacement asserts the Figure 8 layout after an offloaded-client
// deployment: Streamer on the NIC, Decoder+Display on the GPU, File on the
// Smart Disk.
func (h *ClientHarness) VerifyPlacement() error {
	rt := h.tb.ClientRT
	want := map[string]string{
		"tivo.ClientStreamer": "client-nic",
		"tivo.Decoder":        "client-gpu",
		"tivo.Display":        "client-gpu",
		"tivo.DiskFile":       "client-disk",
	}
	for bind, devName := range want {
		handle, err := rt.GetOffcode(bind)
		if err != nil {
			return err
		}
		if handle.Device() == nil {
			return fmt.Errorf("tivopc: %s fell back to host", bind)
		}
		if handle.Device().Name() != devName {
			return fmt.Errorf("tivopc: %s on %s, want %s", bind, handle.Device().Name(), devName)
		}
	}
	return nil
}
