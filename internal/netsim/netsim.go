// Package netsim models the paper's testbed network: hosts attached to a
// Gigabit switch (Dell PowerConnect 6024 in the paper) exchanging UDP-style
// datagrams.
//
// The model preserves what the jitter experiments need: per-flow FIFO
// delivery, serialization at line rate, a fixed switch forwarding latency,
// and a small Gaussian wire-to-application jitter. It is intentionally
// lossless — the paper's streams are unreliable UDP, but on an idle switched
// network loss is negligible and the paper measures jitter, not loss
// recovery. A configurable loss probability exists for channel tests.
package netsim

import (
	"fmt"
	"math/rand"

	"hydra/internal/sim"
)

// Config describes the switched network.
type Config struct {
	BytesPerSec   float64  // link rate (1 Gb/s ≈ 125e6 B/s)
	PropDelay     sim.Time // cable propagation + NIC MAC latency, per hop
	SwitchLatency sim.Time // store-and-forward latency in the switch
	Jitter        sim.Time // stddev of per-packet delivery noise
	LossProb      float64  // independent drop probability (0 for the testbed)
	MTU           int      // maximum datagram size
}

// GigabitSwitched mirrors the testbed: 1 Gb/s, ~5 µs per hop, ~12 µs switch.
func GigabitSwitched() Config {
	return Config{
		BytesPerSec:   125e6,
		PropDelay:     5 * sim.Microsecond,
		SwitchLatency: 12 * sim.Microsecond,
		Jitter:        8 * sim.Microsecond,
		LossProb:      0,
		MTU:           9000,
	}
}

// Packet is one datagram in flight.
type Packet struct {
	Src, Dst string
	Port     uint16
	Payload  []byte
}

// Handler consumes a delivered packet at its destination NIC.
type Handler func(Packet)

// Network is the switch plus attached stations.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	rng      *rand.Rand
	stations map[string]*Station
}

// New creates a network on the engine.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.BytesPerSec <= 0 || cfg.MTU <= 0 {
		panic("netsim: invalid config")
	}
	return &Network{
		eng:      eng,
		cfg:      cfg,
		rng:      eng.NewRand(0x6e6574), // "net"
		stations: make(map[string]*Station),
	}
}

// Station is one attachment point (a NIC port on the switch).
type Station struct {
	name        string
	net         *Network
	handlers    map[uint16]Handler
	txFree      sim.Time // egress serialization watermark
	rxFree      sim.Time // ingress serialization watermark
	lastDeliver sim.Time // monotone delivery clock (no reordering)
}

// Attach adds a station by name. Names must be unique.
func (n *Network) Attach(name string) *Station {
	if _, dup := n.stations[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate station %q", name))
	}
	s := &Station{name: name, net: n, handlers: make(map[uint16]Handler)}
	n.stations[name] = s
	return s
}

// Name returns the station's network name.
func (s *Station) Name() string { return s.name }

// Bind installs the handler invoked for packets arriving on port.
// A nil handler unbinds.
func (s *Station) Bind(port uint16, h Handler) {
	if h == nil {
		delete(s.handlers, port)
		return
	}
	s.handlers[port] = h
}

// Send transmits a datagram to station dst, port. The payload is copied.
// Oversized datagrams are an error (no fragmentation model).
func (s *Station) Send(dst string, port uint16, payload []byte) error {
	n := s.net
	if len(payload) > n.cfg.MTU {
		return fmt.Errorf("netsim: datagram of %d bytes exceeds MTU %d", len(payload), n.cfg.MTU)
	}
	target, ok := n.stations[dst]
	if !ok {
		return fmt.Errorf("netsim: unknown station %q", dst)
	}
	if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		return nil
	}

	wire := sim.Time(float64(len(payload)) / n.cfg.BytesPerSec * float64(sim.Second))
	now := n.eng.Now()

	// Egress serialization: back-to-back sends queue on the sender's link.
	txStart := now
	if s.txFree > txStart {
		txStart = s.txFree
	}
	txDone := txStart + wire
	s.txFree = txDone

	// Switch + second hop serialization on the receiver's link.
	rxStart := txDone + n.cfg.SwitchLatency
	if target.rxFree > rxStart {
		rxStart = target.rxFree
	}
	rxDone := rxStart + wire
	target.rxFree = rxDone

	noise := sim.Time(n.rng.NormFloat64() * float64(n.cfg.Jitter))
	if noise < 0 {
		noise = -noise
	}
	deliverAt := rxDone + 2*n.cfg.PropDelay + noise
	// Switched Ethernet does not reorder a flow; clamp to monotone delivery.
	if deliverAt < target.lastDeliver {
		deliverAt = target.lastDeliver
	}
	target.lastDeliver = deliverAt

	data := make([]byte, len(payload))
	copy(data, payload)
	pkt := Packet{Src: s.name, Dst: dst, Port: port, Payload: data}
	n.eng.At(deliverAt, func() {
		if h, ok := target.handlers[port]; ok {
			h(pkt)
		}
	})
	return nil
}
