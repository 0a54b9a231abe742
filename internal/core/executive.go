package core

import (
	"hydra/internal/channel"
	"hydra/internal/resource"
)

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
// (the paper's Channel.ConnectOffcode). Every device has one channel
// provider, the zero-copy DMA ring, so the endpoint is built directly.
func (rt *Runtime) ConnectOffcode(ch *channel.Channel, target *Handle) error {
	var ocEnd *channel.Endpoint
	if target.dev == nil {
		ocEnd = channel.HostEndpoint(rt.host, target.BindName+"@host")
	} else {
		ocEnd = channel.DeviceEndpoint(target.dev, target.BindName+"@"+target.dev.Name())
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
