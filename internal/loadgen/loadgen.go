// Package loadgen is the open-loop synthetic traffic source for the X12
// data-plane scenario: it models a population of millions of client
// flows of which a fixed number are concurrently active. Packet
// arrivals are Poisson per pacing tick; flow sizes are heavy-tailed
// (a Zipf body over a base, so mice dominate counts while elephants
// dominate bytes); when a flow emits its last packet it retires and a
// fresh flow (new 5-tuple, new size) spawns in its slot, which keeps
// concurrency constant and makes churn a rate the experiment can tune.
//
// The generator is deterministic and engine-independent: one seeded
// rand.Rand drives everything, and an FNV-1a digest over the emitted
// packet stream witnesses that two runs emitted the same stream.
// Generation is
// open loop by construction — the generator never observes the system
// under test.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"

	"hydra/internal/flowtable"
	"hydra/internal/sim"
)

// Config shapes the synthetic population.
type Config struct {
	Seed int64
	// RateHz is the mean offered packet rate; each Tick draws a Poisson
	// arrival count with mean RateHz × Tick.
	RateHz int
	// Tick is the pacing quantum (the experiment schedules one Emit per
	// Tick of virtual time).
	Tick sim.Time
	// Flows is the constant number of concurrently active flows.
	Flows int
	// SizeBase + Zipf(SizeS, SizeV, SizeMax) is a flow's packet count:
	// the base keeps the mean up while the Zipf tail supplies elephants.
	SizeBase uint64
	SizeS    float64 // Zipf s > 1
	SizeV    float64 // Zipf v ≥ 1
	SizeMax  uint64
	// DstPorts is the destination-port population, drawn uniformly per
	// flow — include a firewalled port once to set the drop fraction.
	DstPorts []uint16
}

// Packet is one emitted arrival.
type Packet struct {
	Key flowtable.Key
	// FlowID is the spawn ordinal of the packet's flow — a population
	// counter, not an index (it outgrows Flows as churn proceeds).
	FlowID uint64
	// Seq is the global emission sequence number.
	Seq uint64
}

type activeFlow struct {
	key       flowtable.Key
	id        uint64
	remaining uint64
}

// Gen is one deterministic traffic source.
type Gen struct {
	cfg          Config
	rng          *rand.Rand
	zipf         *rand.Zipf
	expNegLambda float64
	flows        []activeFlow
	nextID       uint64
	seq          uint64
	digest       uint64
	retired      uint64
}

// New validates cfg and builds the generator with its initial flow
// population spawned.
func New(cfg Config) (*Gen, error) {
	if cfg.RateHz <= 0 || cfg.Tick <= 0 || cfg.Flows <= 0 {
		return nil, fmt.Errorf("loadgen: RateHz, Tick and Flows must be positive (%d, %v, %d)",
			cfg.RateHz, cfg.Tick, cfg.Flows)
	}
	if cfg.SizeS <= 1 || cfg.SizeV < 1 || cfg.SizeMax < 1 {
		return nil, fmt.Errorf("loadgen: Zipf needs s>1, v≥1, max≥1 (%g, %g, %d)",
			cfg.SizeS, cfg.SizeV, cfg.SizeMax)
	}
	if len(cfg.DstPorts) == 0 {
		return nil, fmt.Errorf("loadgen: empty DstPorts")
	}
	lambda := float64(cfg.RateHz) * cfg.Tick.Float64Seconds()
	if lambda > 500 {
		return nil, fmt.Errorf("loadgen: %g arrivals per tick overflows the Poisson sampler; shorten Tick", lambda)
	}
	g := &Gen{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		expNegLambda: math.Exp(-lambda),
		flows:        make([]activeFlow, cfg.Flows),
		digest:       fnvOffset,
	}
	g.zipf = rand.NewZipf(g.rng, cfg.SizeS, cfg.SizeV, cfg.SizeMax)
	for i := range g.flows {
		g.flows[i] = g.spawn()
	}
	return g, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// spawn draws a fresh flow: random endpoints, a destination port from
// the configured population, TCP-heavy protocol mix, heavy-tailed size.
func (g *Gen) spawn() activeFlow {
	proto := uint8(6) // TCP
	if g.rng.Intn(10) == 0 {
		proto = 17 // UDP
	}
	key := flowtable.Key{
		SrcIP:   g.rng.Uint32(),
		DstIP:   g.rng.Uint32(),
		SrcPort: uint16(1024 + g.rng.Intn(64512)),
		DstPort: g.cfg.DstPorts[g.rng.Intn(len(g.cfg.DstPorts))],
		Proto:   proto,
	}
	f := activeFlow{key: key, id: g.nextID, remaining: g.cfg.SizeBase + g.zipf.Uint64()}
	g.nextID++
	return f
}

// poisson draws the per-tick arrival count (Knuth's product method;
// fine for the λ ≤ 500 the constructor admits).
func (g *Gen) poisson() int {
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p <= g.expNegLambda {
			return k
		}
		k++
	}
}

// mix folds one packet into the stream digest.
func (g *Gen) mix(p Packet) {
	var b [flowtable.KeyBytes + 16]byte
	p.Key.Put(b[:])
	for i := 0; i < 8; i++ {
		b[flowtable.KeyBytes+i] = byte(p.Seq >> (8 * i))
		b[flowtable.KeyBytes+8+i] = byte(p.FlowID >> (8 * i))
	}
	h := g.digest
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	g.digest = h
}

// Emit generates one tick's arrivals, calling emit for each packet in
// order. Each arrival belongs to a uniformly chosen active flow; a flow
// emitting its last packet retires and a fresh one spawns in its slot.
func (g *Gen) Emit(emit func(Packet)) {
	n := g.poisson()
	for i := 0; i < n; i++ {
		slot := g.rng.Intn(len(g.flows))
		f := &g.flows[slot]
		p := Packet{Key: f.key, FlowID: f.id, Seq: g.seq}
		g.seq++
		g.mix(p)
		f.remaining--
		if f.remaining == 0 {
			g.retired++
			*f = g.spawn()
		}
		emit(p)
	}
}

// Retired counts flows that finished — the churn the flow tables must
// absorb (each retirement eventually ages one entry out).
func (g *Gen) Retired() uint64 { return g.retired }

// Digest is the FNV-1a digest over every emitted packet — equal streams
// are bit-identical.
func (g *Gen) Digest() uint64 { return g.digest }
