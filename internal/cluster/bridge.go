package cluster

// This file materializes cluster edges. Every committed Connect edge
// becomes a Bridge: a proxy-channel pair — one ordinary channel per
// endpoint, built through each host's Channel Executive with the
// coordinator's channel profile, so descriptor rings, batching and
// interrupt coalescing all apply and their stats stay observable — glued
// together by a relay. When the endpoints share a host the relay is a
// direct handoff; when they don't, a host-side forwarder Offcode on each
// end pays netmodel-style per-packet/per-byte forwarding cycles on its
// host CPU and the payload crosses a simulated point-to-point link with
// per-direction FIFO serialization (bandwidth) plus propagation latency —
// the cluster analogue of §4.1's zero-copy NIC path.

import (
	"errors"
	"fmt"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/guid"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

// Trace record names (obs.CatCluster). Bridge hops record on the engine
// they execute on: bridge.tx on the source host's shard, bridge.link (the
// serialized wire + propagation span) on the source, bridge.rx on the
// destination — so a cross-host message is visible leaving one shard and
// arriving on another at the matching virtual times.
const (
	trBridgeTx   = "bridge.tx"
	trBridgeLink = "bridge.link"
	trBridgeRx   = "bridge.rx"
	trBridgeDrop = "bridge.drop"
)

// forwarder is the host-side proxy Offcode deployed (one per end) for a
// cross-host edge. Its behaviour object does the relaying; its handle
// makes the proxy visible in the runtime's Offcode population, owned by
// the cluster session like any other deployment.
type forwarder struct {
	task *hostos.Task
}

// Initialize implements core.Offcode.
func (f *forwarder) Initialize(ctx *core.Context) error {
	f.task = ctx.Host.NewTask("cluster-fwd")
	return nil
}

// Start implements core.Offcode.
func (f *forwarder) Start() error { return nil }

// Stop implements core.Offcode.
func (f *forwarder) Stop() error { return nil }

// exec charges cycles of forwarding work on the forwarder's host CPU
// (kernel context: the proxy is protocol processing), then runs k.
func (f *forwarder) exec(cycles uint64, k func()) {
	f.task.Syscall(cycles, k)
}

// bridgeLeg is one end of a bridge: the shard's handle on its host, the
// proxy channel to it, and (for cross-host edges) the forwarder.
type bridgeLeg struct {
	back      *backend
	handle    *core.Handle
	ch        *channel.Channel
	end       *channel.Endpoint // creator (host) side; the relay's tap
	node      *resource.Node    // owns the channel; Close retires it
	fwd       *forwarder        // nil on local edges
	fwdHandle *core.Handle
	tr        *obs.Shard // host engine's shard when CatCluster enabled
}

// Bridge materializes one cluster edge A↔B.
type Bridge struct {
	// A and B are the edge's shard bind names.
	A, B string

	coord   *Coordinator
	legs    [2]*bridgeLeg // [0] = A's end, [1] = B's end
	relayed [2]uint64     // [0]: A→B deliveries, [1]: B→A
	dropped [2]uint64     // relays lost to a closed/rebuilding far end
}

// Cross reports whether the edge currently spans two hosts.
func (b *Bridge) Cross() bool { return b.legs[0].back != b.legs[1].back }

// Relayed reports delivered relay counts (A→B, B→A).
func (b *Bridge) Relayed() (aToB, bToA uint64) { return b.relayed[0], b.relayed[1] }

// Dropped reports relays that found the far end closed (e.g. mid-failover).
func (b *Bridge) Dropped() uint64 { return b.dropped[0] + b.dropped[1] }

// Stats merges both proxy channels' stats into one surface, so batching,
// coalescing and interrupt amortization remain observable end to end.
func (b *Bridge) Stats() channel.Stats {
	var s channel.Stats
	for _, leg := range b.legs {
		if leg != nil && leg.ch != nil {
			s.Add(leg.ch.Stats())
		}
	}
	return s
}

// buildBridge constructs the bridge for edge a↔b whose endpoints live on
// backA/backB, completing through k over simulated time (forwarder
// deployment runs each host's deployment pipeline).
func (c *Coordinator) buildBridge(a, b string, backA, backB *backend, k func(*Bridge, error)) {
	br := &Bridge{A: a, B: b, coord: c}
	c.buildLeg(br, 0, a, backA, func(err error) {
		if err != nil {
			br.teardown()
			k(nil, err)
			return
		}
		c.buildLeg(br, 1, b, backB, func(err error) {
			if err != nil {
				br.teardown()
				k(nil, err)
				return
			}
			br.wire()
			k(br, nil)
		})
	})
}

// buildLeg assembles one end: resolve the shard's handle, open the proxy
// channel to it under the cluster session, and — when the far end lives on
// another host — deploy the host-side forwarder Offcode.
func (c *Coordinator) buildLeg(br *Bridge, side int, bind string, back *backend, k func(error)) {
	h, err := back.hs.Runtime.GetOffcode(bind)
	if err != nil {
		k(fmt.Errorf("cluster: bridge endpoint %s on %s: %w", bind, back.name(), err))
		return
	}
	end, ch, node, err := back.app.CreateChannelOwned(c.cfg.Channel, h)
	if err != nil {
		k(fmt.Errorf("cluster: bridge channel to %s: %w", bind, err))
		return
	}
	leg := &bridgeLeg{
		back: back, handle: h, ch: ch, end: end, node: node,
		tr: obs.ForCat(c.engineOf(back), obs.CatCluster),
	}
	br.legs[side] = leg

	cross := br.legs[0] != nil && br.legs[1] != nil && br.legs[0].back != br.legs[1].back
	needFwd := side == 1 && cross
	if side == 0 {
		// A's end cannot know yet whether the edge crosses hosts; the
		// forwarder (if needed) is added when B's end resolves.
		k(nil)
		return
	}
	if !needFwd {
		k(nil)
		return
	}
	c.deployForwarder(br, 0, func(err error) {
		if err != nil {
			k(err)
			return
		}
		c.deployForwarder(br, 1, k)
	})
}

// deployForwarder synthesizes, stocks and commits the host-side forwarder
// Offcode for one end of a cross-host bridge.
func (c *Coordinator) deployForwarder(br *Bridge, side int, k func(error)) {
	leg := br.legs[side]
	c.fwdSeq++
	seq := c.fwdSeq
	bind := fmt.Sprintf("hydra.cluster.fwd%d", seq)
	g := fwdGUIDBase + guid.GUID(seq)
	path := fmt.Sprintf("/cluster/%s.odf", bind)
	dep := leg.back.hs.Depot
	dep.PutFile(path, []byte(fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`, bind, g)))
	fwd := &forwarder{}
	if err := dep.RegisterFactory(g, func() any { return fwd }); err != nil {
		k(err)
		return
	}
	plan := leg.back.app.Plan()
	if err := plan.AddRoot(path); err != nil {
		k(err)
		return
	}
	plan.Commit(func(d *core.Deployment, err error) {
		if err != nil {
			k(fmt.Errorf("cluster: forwarder on %s: %w", leg.back.name(), err))
			return
		}
		leg.fwd = fwd
		leg.fwdHandle = d.Handles[bind]
		k(nil)
	})
}

// fwdGUIDBase keeps forwarder GUIDs far away from application GUID
// ranges; collisions with user Offcodes would poison the depots.
const fwdGUIDBase guid.GUID = 0x464F5257_0000 // "FORW" shifted high

// wire installs the relay taps on both creator-side endpoints.
func (b *Bridge) wire() {
	for side := range b.legs {
		side := side
		b.legs[side].end.InstallCallHandler(func(data []byte) {
			b.relay(side, data)
		})
	}
}

// relay carries one payload from the side it surfaced on to the far end:
// a direct handoff when co-located, otherwise TX forwarding cycles on the
// source host, FIFO serialization plus propagation on the link, and RX
// forwarding cycles on the destination host before the far proxy channel
// delivers it.
func (b *Bridge) relay(dir int, payload []byte) {
	data := append([]byte(nil), payload...)
	src, dst := b.legs[dir], b.legs[1-dir]
	if src.tr.On() {
		src.tr.Instant(obs.CatCluster, trBridgeTx, int64(len(data)))
	}
	if src.back == dst.back {
		b.deliver(dir, data)
		return
	}
	dtr := dst.tr
	txCycles := uint64(costModel.PerPacketTX + costModel.PerByteTX*float64(len(data)))
	src.fwd.exec(txCycles, func() {
		l := b.coord.cfg.DefaultLink
		srcEng, dstEng := b.coord.engineOf(src.back), b.coord.engineOf(dst.back)
		wire := sim.Time(float64(len(data)) / l.BytesPerSec * float64(sim.Second))
		// Serialize on the directed physical link, shared with every other
		// bridge riding this host pair. The watermark map is guarded:
		// under windowed parallel execution relays run on per-host engine
		// goroutines.
		linkKey := src.back.name() + "→" + dst.back.name()
		start := srcEng.Now()
		b.coord.linkMu.Lock()
		if busy := b.coord.linkBusy[linkKey]; busy > start {
			start = busy
		}
		b.coord.linkBusy[linkKey] = start + wire
		b.coord.linkMu.Unlock()
		// The link occupancy window is committed here, on the source
		// engine; the span records on the source shard.
		if src.tr.On() {
			src.tr.Complete(obs.CatCluster, trBridgeLink, start, wire+l.Latency, int64(len(data)))
		}
		b.coord.across(srcEng, dstEng, start+wire+l.Latency, func() {
			// Re-read the far leg: a failover may have rebuilt it while the
			// payload was in flight, and the new leg is the right target.
			far := b.legs[1-dir]
			if far == nil || far.fwd == nil {
				b.dropped[dir]++
				if dtr.On() {
					dtr.Instant(obs.CatCluster, trBridgeDrop, int64(len(data)))
				}
				return
			}
			if dtr.On() {
				dtr.Instant(obs.CatCluster, trBridgeRx, int64(len(data)))
			}
			rxCycles := uint64(costModel.PerPacketRX + costModel.InterruptRX + costModel.PerByteRX*float64(len(data)))
			far.fwd.exec(rxCycles, func() { b.deliver(dir, data) })
		})
	})
}

// deliver writes into the far proxy channel (which models the final
// host→Offcode hop with the configured batching/coalescing).
func (b *Bridge) deliver(dir int, data []byte) {
	far := b.legs[1-dir]
	if far == nil || far.end == nil {
		b.dropped[dir]++
		return
	}
	if err := far.end.Write(data); err != nil {
		b.dropped[dir]++
		return
	}
	b.relayed[dir]++
}

// teardown retires both legs: channels close (rings return to the ledger,
// quotas release) and forwarders stop. Legs on a dead backend are skipped
// — their resources died with the host's session.
func (b *Bridge) teardown() error {
	var errs []error
	for side, leg := range b.legs {
		if leg == nil {
			continue
		}
		b.legs[side] = nil
		if leg.back.dead {
			continue
		}
		if leg.node != nil {
			if err := leg.node.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		if leg.fwdHandle != nil {
			if err := leg.back.hs.Runtime.StopOffcode(leg.fwdHandle); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
