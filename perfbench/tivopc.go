package main

import (
	"bytes"
	"fmt"

	"hydra/internal/mpeg"
	"hydra/internal/sim"
	"hydra/internal/tivopc"
)

// The tivopc workload is the paper's §6.4 application: the offloaded
// server streams 1 KB every 5 ms to the offloaded client, whose NIC
// multicasts each chunk to the GPU (decode, display) and to the smart
// disk, which records it on the NAS over NFS. One engine, a fixed
// simulated span: the NAS regrows the recording on every append, so the
// span is part of the workload's definition. Unit: one chunk delivered
// to the client.
const (
	tvSpan  = 10 * sim.Second
	tvDrain = 200 * sim.Millisecond
	tvSlice = 10 * sim.Millisecond
)

type tivo struct {
	tb     *tivopc.Testbed
	client *tivopc.ClientHarness
	server *tivopc.ServerHarness
	now    sim.Time
}

func buildTivo(seed int64, sp *spans) (instance, error) {
	w := &tivo{}
	var err error
	sp.setup(spanBuild, func() { w.tb = tivopc.NewTestbed(seed, tvSpan) })
	if w.client, err = tivopc.StartClient(w.tb, tivopc.OffloadedClient); err != nil {
		return nil, fmt.Errorf("tivopc: client: %w", err)
	}
	if w.server, err = tivopc.StartServer(w.tb, tivopc.OffloadedServer, tvSpan); err != nil {
		return nil, fmt.Errorf("tivopc: server: %w", err)
	}
	return w, nil
}

func (w *tivo) step() bool {
	if w.now >= tvSpan {
		return false
	}
	w.now = min(w.now+tvSlice, tvSpan)
	w.tb.Eng.Run(w.now)
	return true
}

// drain lets the last chunks land.
func (w *tivo) drain() { w.tb.Eng.Run(tvSpan + tvDrain) }

// check verifies the application's ledgers: every chunk sent arrived,
// every frame decoded was shown, the early frames match the source pixel
// for pixel, and the recording holds exactly the delivered chunks, which
// decode without corruption to the frames the GPU decoded.
func (w *tivo) check() (*outcome, error) {
	c := w.client
	if err := c.DeployErr(); err != nil {
		return nil, fmt.Errorf("tivopc: client deploy: %w", err)
	}
	if err := w.server.DeployErr(); err != nil {
		return nil, fmt.Errorf("tivopc: server deploy: %w", err)
	}
	if err := c.VerifyPlacement(); err != nil {
		return nil, err
	}
	delivered := uint64(len(c.Arrivals.Times))
	rec, _ := w.tb.NASStore.Get(tivopc.RecordPath)
	movie, _ := w.tb.NASStore.Get(tivopc.MoviePath)
	dec := mpeg.NewDecoder()
	frames := 0
	for off := 0; off < len(rec); off += tivopc.ChunkBytes {
		frames += len(dec.Feed(rec[off:min(off+tivopc.ChunkBytes, len(rec))]))
	}
	switch sent := uint64(w.server.TotalSent()); {
	case sent != delivered:
		return nil, fmt.Errorf("tivopc: server sent %d chunks, client received %d", sent, delivered)
	case delivered == 0 || c.Decoder.Frames == 0:
		return nil, fmt.Errorf("tivopc: %d chunks delivered, %d frames decoded", delivered, c.Decoder.Frames)
	case c.Display.Shown != c.Decoder.Frames:
		return nil, fmt.Errorf("tivopc: %d frames shown, %d decoded", c.Display.Shown, c.Decoder.Frames)
	case c.Display.VerifyFail != 0:
		return nil, fmt.Errorf("tivopc: %d shown frames differ from the source", c.Display.VerifyFail)
	case uint64(c.DiskFile.Written) != delivered*tivopc.ChunkBytes || len(rec) != c.DiskFile.Written:
		return nil, fmt.Errorf("tivopc: recorded %d bytes (%d on the NAS) for %d delivered chunks",
			c.DiskFile.Written, len(rec), delivered)
	case !bytes.HasPrefix(movie, rec):
		return nil, fmt.Errorf("tivopc: recording differs from the streamed movie")
	case dec.Corrupt != 0 || frames != c.Decoder.Frames:
		return nil, fmt.Errorf("tivopc: recording decodes to %d frames with %d corrupt, GPU decoded %d",
			frames, dec.Corrupt, c.Decoder.Frames)
	}
	out := &outcome{units: delivered, attempted: delivered}
	for _, ms := range c.Arrivals.Gaps() {
		out.lats = append(out.lats, ms*1000)
	}
	d := newDigest()
	d.addFloats(out.lats)
	d.add(uint64(c.Decoder.Frames), c.Display.LastChecksum, uint64(len(rec)))
	out.digest = d.sum()
	out.addHost(w.tb.Server, w.tb.ServerBus)
	out.addHost(w.tb.Client, w.tb.ClientBus)
	out.counts.Events = w.tb.Eng.Diag().Fired
	out.counts.NFSReq = w.tb.NASServer.Requests
	return out, nil
}
