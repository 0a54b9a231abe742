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
	"hydra/internal/odf"
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
// backA/backB, completing through k over simulated time: both legs first,
// then — when the edge crosses hosts — A's forwarder and B's (each runs its
// host's deployment pipeline), then the relay taps.
func (c *Coordinator) buildBridge(a, b string, backA, backB *backend, k func(*Bridge, error)) {
	br := &Bridge{A: a, B: b, coord: c}
	done := func(err error) {
		if err != nil {
			br.teardown()
			k(nil, err)
			return
		}
		br.wire()
		k(br, nil)
	}
	var err error
	if br.legs[0], err = c.buildLeg(a, backA); err == nil {
		br.legs[1], err = c.buildLeg(b, backB)
	}
	if err != nil || !br.Cross() {
		done(err)
		return
	}
	c.deployForwarder(br.legs[0], func(err error) {
		if err != nil {
			done(err)
			return
		}
		c.deployForwarder(br.legs[1], done)
	})
}

// buildLeg assembles one end: resolve the shard's handle and open the
// proxy channel to it under the cluster session.
func (c *Coordinator) buildLeg(bind string, back *backend) (*bridgeLeg, error) {
	h, err := back.hs.Runtime.GetOffcode(bind)
	if err != nil {
		return nil, fmt.Errorf("cluster: bridge endpoint %s on %s: %w", bind, back.name(), err)
	}
	end, ch, node, err := back.app.CreateChannel(c.cfg.Channel, h)
	if err != nil {
		return nil, fmt.Errorf("cluster: bridge channel to %s: %w", bind, err)
	}
	return &bridgeLeg{
		back: back, handle: h, ch: ch, end: end, node: node,
		tr: obs.ForCat(back.hs.Eng, obs.CatCluster),
	}, nil
}

// deployForwarder synthesizes, stocks and commits the host-side forwarder
// Offcode for one end of a cross-host bridge.
func (c *Coordinator) deployForwarder(leg *bridgeLeg, k func(error)) {
	c.fwdSeq++
	seq := c.fwdSeq
	bind := fmt.Sprintf("hydra.cluster.fwd%d", seq)
	g := fwdGUIDBase + guid.GUID(seq)
	path := fmt.Sprintf("/cluster/%s.odf", bind)
	dep := leg.back.hs.Depot
	// A host-fallback Offcode with no imports or interfaces: built in code
	// rather than parsed from XML, as each bridge deploys two.
	dep.PutODF(path, &odf.ODF{BindName: bind, GUID: g, HostFallback: true})
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
// delivers it. A cross-host payload rides a pooled relay record; the
// direct handoff needs no copy, because Endpoint.Write copies.
func (b *Bridge) relay(dir int, payload []byte) {
	src, dst := b.legs[dir], b.legs[1-dir]
	if src.tr.On() {
		src.tr.Instant(obs.CatCluster, trBridgeTx, int64(len(payload)))
	}
	if src.back == dst.back {
		b.deliver(dir, payload)
		return
	}
	r := src.back.getRelay()
	r.b, r.dir, r.src, r.dst = b, dir, src, dst
	r.data = append(r.data[:0], payload...)
	// Forwarding work runs in kernel context on the forwarder's host CPU:
	// the proxy is protocol processing.
	txCycles := uint64(costModel.PerPacketTX + costModel.PerByteTX*float64(len(r.data)))
	src.fwd.task.Syscall(txCycles, r.txFn)
}

// relayRec is one cross-host message in flight: the bridge direction,
// the legs it left and was sent toward, and a payload buffer it owns and
// keeps across trips. Its tx, arrive and rx steps are bound once when
// minted. Records are pooled per backend and taken on the source host;
// each returns to the pool of the backend whose engine runs its last step
// (arrive on a drop, rx on a delivery).
type relayRec struct {
	b        *Bridge
	dir      int
	src, dst *bridgeLeg // the legs at send time
	far      *bridgeLeg // the far leg at arrival, which rx delivers through
	data     []byte

	txFn, arriveFn, rxFn func()
}

func (bk *backend) getRelay() *relayRec {
	if n := len(bk.relayFree); n > 0 {
		r := bk.relayFree[n-1]
		bk.relayFree[n-1] = nil
		bk.relayFree = bk.relayFree[:n-1]
		return r
	}
	r := &relayRec{}
	r.txFn, r.arriveFn, r.rxFn = r.tx, r.arrive, r.rx
	return r
}

// putRelay recycles a record into bk's pool, keeping its payload buffer.
func (bk *backend) putRelay(r *relayRec) {
	r.b, r.src, r.dst, r.far = nil, nil, nil, nil
	if len(bk.relayFree) < 256 {
		bk.relayFree = append(bk.relayFree, r)
	}
}

// tx runs on the source host once its forwarding cycles are spent: it
// commits the payload's slot on the directed link and sends it across.
func (r *relayRec) tx() {
	src, dst := r.src, r.dst
	l := r.b.coord.cfg.DefaultLink
	srcEng := src.back.hs.Eng
	wire := sim.Time(float64(len(r.data)) / l.BytesPerSec * float64(sim.Second))
	// Serialize on the directed physical link, shared with every other
	// bridge riding this host pair. The source host owns the watermark
	// and this step runs on its engine.
	start := srcEng.Now()
	if busy := src.back.linkFree[dst.back]; busy > start {
		start = busy
	}
	src.back.linkFree[dst.back] = start + wire
	// The link occupancy window is committed here, on the source
	// engine; the span records on the source shard.
	if src.tr.On() {
		src.tr.Complete(obs.CatCluster, trBridgeLink, start, wire+l.Latency, int64(len(r.data)))
	}
	r.b.coord.across(srcEng, dst.back.hs.Eng, start+wire+l.Latency, r.arriveFn)
}

// arrive runs on the destination host when the payload comes off the
// link.
func (r *relayRec) arrive() {
	b, dir, dtr := r.b, r.dir, r.dst.tr
	// Re-read the far leg: a failover may have rebuilt it while the
	// payload was in flight, and the new leg is the right target.
	far := b.legs[1-dir]
	if far == nil || far.fwd == nil {
		b.dropped[dir]++
		if dtr.On() {
			dtr.Instant(obs.CatCluster, trBridgeDrop, int64(len(r.data)))
		}
		r.dst.back.putRelay(r)
		return
	}
	if dtr.On() {
		dtr.Instant(obs.CatCluster, trBridgeRx, int64(len(r.data)))
	}
	r.far = far
	rxCycles := uint64(costModel.PerPacketRX + costModel.InterruptRX + costModel.PerByteRX*float64(len(r.data)))
	far.fwd.task.Syscall(rxCycles, r.rxFn)
}

// rx runs on the far leg's host once its forwarding cycles are spent.
func (r *relayRec) rx() {
	r.b.deliver(r.dir, r.data)
	r.far.back.putRelay(r)
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
