package core

import (
	"fmt"

	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

// CostMetric is a Channel Provider's self-reported "price for communicating
// with the device through a specific channel, in terms of latency and
// throughput" (§4). The Channel Executive "uses this capability information
// to decide on the best provider for a specific Offcode".
type CostMetric struct {
	Latency    sim.Time
	Throughput float64 // bytes/sec
}

// score orders providers: lower is better. Latency dominates for small
// messages; throughput for large ones — the executive scores against the
// channel's MaxMessage.
func (c CostMetric) score(msgBytes int) float64 {
	if c.Throughput <= 0 {
		return float64(c.Latency) + 1e18
	}
	return float64(c.Latency) + float64(msgBytes)/c.Throughput*float64(sim.Second)
}

// ChannelProvider is the per-device, target-specific factory for channels
// ("provided as an extended driver for each programmable device").
type ChannelProvider interface {
	Name() string
	Cost(cfg channel.Config) CostMetric
	// Endpoint constructs the device-side endpoint for a new channel.
	Endpoint(name string) *channel.Endpoint
}

// dmaProvider is the standard DMA ring provider every registered device
// gets by default: zero-copy capable, bus-speed throughput.
type dmaProvider struct {
	dev *device.Device
}

// NewDMAProvider returns the default zero-copy DMA channel provider.
func NewDMAProvider(d *device.Device) ChannelProvider { return &dmaProvider{dev: d} }

func (p *dmaProvider) Name() string { return p.dev.Name() + "/dma" }
func (p *dmaProvider) Endpoint(name string) *channel.Endpoint {
	return channel.DeviceEndpoint(p.dev, name)
}

func (p *dmaProvider) Cost(cfg channel.Config) CostMetric {
	m := CostMetric{Latency: 15 * sim.Microsecond, Throughput: 250e6}
	if !cfg.ZeroCopyWrite || !cfg.ZeroCopyRead {
		// Staging copies halve effective throughput and add latency.
		m.Latency += 10 * sim.Microsecond
		m.Throughput /= 2
	}
	return m
}

// createChannelUnder builds and connects a channel whose lifetime hangs off
// owner, returning the owning resource node alongside; onClose, if non-nil,
// runs when that node closes (after the channel itself closed — used for
// quota release).
func (rt *Runtime) createChannelUnder(owner *resource.Node, cfg channel.Config, target *Handle, onClose func()) (*channel.Endpoint, *channel.Channel, *resource.Node, error) {
	appEnd := channel.HostEndpoint(rt.host, "app→"+target.BindName)
	ch, err := channel.New(rt.eng, rt.bus, cfg, appEnd)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := rt.ConnectOffcode(ch, target); err != nil {
		ch.Close()
		return nil, nil, nil, err
	}
	node, err := owner.NewChild("channel:"+appEnd.Name(), func() error {
		ch.Close()
		if onClose != nil {
			onClose()
		}
		return nil
	})
	if err != nil {
		ch.Close()
		return nil, nil, nil, err
	}
	return appEnd, ch, node, nil
}

// attachedEnd is one Offcode-side channel endpoint the executive
// connected to a deployed instance. Handles carry these so a live
// Replace can pause them, hand the surviving channels to the
// replacement instance, and replay what arrived mid-swap.
type attachedEnd struct {
	ch  *channel.Channel
	end *channel.Endpoint
}

// ConnectOffcode attaches target's endpoint to an existing channel
// (the paper's Channel.ConnectOffcode), selecting the best provider for
// the target's device by cost.
func (rt *Runtime) ConnectOffcode(ch *channel.Channel, target *Handle) error {
	var ocEnd *channel.Endpoint
	if target.dev == nil {
		ocEnd = channel.HostEndpoint(rt.host, target.BindName+"@host")
	} else {
		prov, err := rt.bestProvider(target.dev, ch.Config())
		if err != nil {
			return err
		}
		ocEnd = prov.Endpoint(target.BindName + "@" + target.dev.Name())
	}
	if err := ch.Connect(ocEnd); err != nil {
		return err
	}
	target.attached = append(target.attached, attachedEnd{ch: ch, end: ocEnd})
	notifyOffcodeChannel(target, ocEnd)
	return nil
}

// liveAttachments prunes attachments whose channel has since closed and
// returns the survivors — the endpoints a hot-swap must quiesce and carry
// over to the replacement instance.
func (h *Handle) liveAttachments() []attachedEnd {
	kept := h.attached[:0]
	for _, at := range h.attached {
		if !at.ch.Closed() {
			kept = append(kept, at)
		}
	}
	h.attached = kept
	return kept
}

func (rt *Runtime) bestProvider(d *device.Device, cfg channel.Config) (ChannelProvider, error) {
	provs := rt.providers[d.Name()]
	if len(provs) == 0 {
		return nil, fmt.Errorf("core: no channel provider for device %s", d.Name())
	}
	best := provs[0]
	bestScore := best.Cost(cfg).score(cfg.MaxMessage)
	for _, p := range provs[1:] {
		if s := p.Cost(cfg).score(cfg.MaxMessage); s < bestScore {
			best, bestScore = p, s
		}
	}
	return best, nil
}

// ChannelAware is implemented by Offcode behaviours that want to be told
// when a new channel endpoint is connected to them ("the OOB-channel is
// usually used to notify the Offcode regarding ... availability of other
// channels", §3.2).
type ChannelAware interface {
	ChannelConnected(ep *channel.Endpoint)
}

func notifyOffcodeChannel(h *Handle, ep *channel.Endpoint) {
	if h.behaviour == nil {
		return
	}
	if ca, ok := h.behaviour.(ChannelAware); ok {
		ca.ChannelConnected(ep)
	}
}
