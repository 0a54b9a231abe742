// Package cluster scales HYDRA from one host to a machine pool: a
// coordinator that treats every runtime-carrying host of a testbed.System
// as a placement backend for a single, cluster-wide Offcode graph.
//
// The paper's Offloading Access layer stops at one host and its
// peripherals. This package adds the layer above it:
//
//   - cluster.Plan accepts deployment roots ("shards") that may land on
//     different hosts, plus Connect edges carrying traffic estimates.
//     Solve extends the §5 layout objective one level up — the
//     layout.ShardGraph assignment charges inter-host link costs derived
//     from netmodel cycle accounting and each link's latency/bandwidth,
//     while co-located shards communicate for free — and previews both the
//     host assignment and each host's own device-level placement.
//   - Commit drives each host's transactional core.DeployPlan as a
//     sub-transaction with cluster-wide rollback: if any host's commit (or
//     any bridge build) fails, every Offcode already committed on peer
//     hosts is stopped in reverse order, leaving each host's
//     hostos.LiveBytes and device.MemLive ledgers at their pre-plan
//     values.
//   - Cross-host edges materialize as proxy-channel pairs (bridge.go): a
//     host-side forwarder Offcode on each end bridges two ordinary
//     channel.Endpoints over a simulated point-to-point link with
//     per-link latency and bandwidth, preserving the channel layer's
//     batching/coalescing stats surface end to end.
//   - FailHost (failover.go) is cluster-aware failover: when a whole
//     machine dies, its shards' checkpoints are carried to surviving
//     hosts, the assignment is re-solved over the survivors only, and the
//     affected bridges are rebuilt — migration across hosts, not just
//     across a host's own devices.
//
// Everything runs on the shared simulation engine, so for a fixed seed a
// cluster deployment, its traffic and its migrations are bit-identical
// across runs (and across testbed.Sweep workers).
package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/netmodel"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// Link models one inter-host point-to-point link: one-way propagation
// latency plus serialization bandwidth. Bridges simulate transfers with
// per-direction FIFO serialization exactly like netsim stations.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency sim.Time
	// BytesPerSec is the serialization rate (125e6 ≈ 1 Gb/s).
	BytesPerSec float64
}

// DefaultLink mirrors the paper testbed's switched gigabit fabric:
// ~20 µs one-way, 1 Gb/s.
func DefaultLink() Link {
	return Link{Latency: 20 * sim.Microsecond, BytesPerSec: 125e6}
}

// Config tunes a Coordinator.
type Config struct {
	// AppName names the application session the coordinator opens on every
	// backend host's runtime (default "cluster"). All cluster deployments,
	// bridge channels and forwarders are owned by — and accounted to —
	// that per-host session.
	AppName string
	// HostCapacity bounds the total shard load per host; 0 auto-balances
	// to ceil(total load / live hosts), which forces an even spread.
	HostCapacity float64
	// DefaultLink is the link model between every host pair; zero value →
	// DefaultLink().
	DefaultLink Link
	// Channel configures both legs of every bridge (ring depth, zero-copy,
	// batching, coalescing); zero RingEntries → channel.DefaultConfig.
	Channel channel.Config
}

// costModel supplies the per-packet/per-byte forwarding cycle costs the
// solver charges cross-host edges and bridge relays burn.
var costModel = netmodel.Foong2003()

func (cfg Config) withDefaults() Config {
	if cfg.AppName == "" {
		cfg.AppName = "cluster"
	}
	if cfg.DefaultLink == (Link{}) {
		cfg.DefaultLink = DefaultLink()
	}
	if cfg.Channel.RingEntries == 0 {
		cfg.Channel = channel.DefaultConfig()
	}
	return cfg
}

// backend is one placement target: a testbed host with a runtime, plus the
// coordinator's session on it.
type backend struct {
	hs   *testbed.HostSystem
	app  *core.App
	dead bool
}

func (b *backend) name() string { return b.hs.Spec.Name }

// placement records where one committed shard currently lives.
type placement struct {
	bind, path string
	load       float64
	pin        string // user pin (host name), "" = free to migrate
	back       *backend
}

// edgeRec is one committed Connect edge, kept so failover can rebuild its
// bridge after an endpoint migrates.
type edgeRec struct {
	a, b    string
	traffic Traffic
}

// Traffic estimates one edge's load for the placement objective.
type Traffic struct {
	// BytesPerSec is the payload rate across the edge.
	BytesPerSec float64
	// MsgsPerSec is the message rate (per-packet forwarding costs).
	MsgsPerSec float64
}

// Coordinator schedules Offcode graphs across the runtime hosts of a
// testbed.System. Create one with New; deploy through Plan; migrate off a
// dead machine with FailHost; tear everything down with Close.
type Coordinator struct {
	sys *testbed.System
	cfg Config

	backs  []*backend
	byHost map[string]*backend

	placements map[string]*placement
	rootOrder  []string // deterministic iteration over placements
	edges      []edgeRec
	bridges    map[string]*Bridge
	// linkBusy holds per-directed-link serialization watermarks ("a→b"),
	// shared by every bridge riding that host pair: N bridges on one link
	// contend for its bandwidth instead of each getting the full rate.
	// linkMu guards it: under windowed parallel execution relays run on
	// per-host engine goroutines concurrently. (Distinct directed links
	// never race on a value, only on the map itself.)
	linkMu   sync.Mutex
	linkBusy map[string]sim.Time
	// group coordinates per-host engines (EnginePerHost testbeds) for
	// conservative-window execution; nil on shared-engine systems.
	group *sim.Group

	fwdSeq     int
	committing bool
	closed     bool
}

// New opens a coordinator over every runtime host of sys, opening the
// cluster session on each.
func New(sys *testbed.System, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	hosts := sys.RuntimeHosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("cluster: system has no runtime hosts")
	}
	c := &Coordinator{
		sys: sys, cfg: cfg,
		byHost:     make(map[string]*backend),
		placements: make(map[string]*placement),
		bridges:    make(map[string]*Bridge),
		linkBusy:   make(map[string]sim.Time),
	}
	for _, hs := range hosts {
		app, err := hs.Runtime.OpenApp(cfg.AppName, core.AppConfig{})
		if err != nil {
			return nil, fmt.Errorf("cluster: host %s: %w", hs.Spec.Name, err)
		}
		b := &backend{hs: hs, app: app}
		c.backs = append(c.backs, b)
		c.byHost[b.name()] = b
	}
	return c, nil
}

// EngineGroup returns (building on first use) the sim.Group over the
// system's engines — the control engine plus every distinct per-host
// engine — with lookahead set to the link latency. On a shared-engine
// testbed the group holds one engine, so Settle degenerates to RunAll and
// windowed Run to a plain bounded run. Errors if the link latency is
// non-positive: a zero-latency link admits no conservative window.
func (c *Coordinator) EngineGroup() (*sim.Group, error) {
	if c.group != nil {
		return c.group, nil
	}
	look := c.cfg.DefaultLink.Latency
	if look <= 0 {
		return nil, fmt.Errorf("cluster: link latency %v: conservative windows need positive lookahead", look)
	}
	engines := []*sim.Engine{c.sys.Eng}
	seen := map[*sim.Engine]bool{c.sys.Eng: true}
	for _, b := range c.backs {
		if e := b.hs.Eng; !seen[e] {
			seen[e] = true
			engines = append(engines, e)
		}
	}
	g, err := sim.NewGroup(engines, look)
	if err != nil {
		return nil, err
	}
	c.group = g
	return g, nil
}

// engineOf resolves the engine a backend's components schedule on.
func (c *Coordinator) engineOf(b *backend) *sim.Engine { return b.hs.Eng }

// across schedules fn at absolute time at on the destination engine.
// Same-engine hops (shared-clock systems, co-located edges) go straight
// to the queue; cross-engine hops route through the group so windowed
// parallel runs buffer them for deterministic barrier injection. A
// cross-engine hop before EngineGroup was built falls back to direct
// scheduling, which is only sound under single-threaded global-order
// execution (Group.Settle).
func (c *Coordinator) across(src, dst *sim.Engine, at sim.Time, fn func()) {
	if src != dst && c.group != nil {
		c.group.Send(src, dst, at, fn)
		return
	}
	dst.At(at, fn)
}

func (c *Coordinator) live() []*backend {
	out := make([]*backend, 0, len(c.backs))
	for _, b := range c.backs {
		if !b.dead {
			out = append(out, b)
		}
	}
	return out
}

// HostOf reports which host currently runs the named shard ("" if none).
func (c *Coordinator) HostOf(bind string) string {
	if p, ok := c.placements[bind]; ok {
		return p.back.name()
	}
	return ""
}

// Bridges lists the live bridges sorted by edge key.
func (c *Coordinator) Bridges() []*Bridge {
	keys := make([]string, 0, len(c.bridges))
	for k := range c.bridges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Bridge, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.bridges[k])
	}
	return out
}

// edgeWeight converts a traffic estimate into the forwarding cycles/second
// both ends of a cross-host edge would burn — netmodel's per-packet,
// per-byte and receive-interrupt accounting applied to the proxy pair.
func edgeWeight(t Traffic) float64 {
	return t.MsgsPerSec*(costModel.PerPacketTX+costModel.PerPacketRX+costModel.InterruptRX) +
		t.BytesPerSec*(costModel.PerByteTX+costModel.PerByteRX)
}

// linkCostFactor scales an edge's forwarding weight by how bad the link
// is: a near-ideal gigabit link costs ~2 (forwarding plus wire occupancy),
// and every millisecond of one-way latency adds another unit — so the
// solver prefers short links for chatty edges and co-location above all.
func linkCostFactor(l Link) float64 {
	f := 1 + float64(l.Latency)/float64(sim.Millisecond)
	if l.BytesPerSec > 0 {
		f += DefaultLink().BytesPerSec / l.BytesPerSec
	}
	return f
}

// autoCapacity computes the per-host load bound: an even spread of the
// total load across the live hosts (HostCapacity overrides).
func (c *Coordinator) autoCapacity(totalLoad float64, liveHosts int) float64 {
	if c.cfg.HostCapacity > 0 {
		return c.cfg.HostCapacity
	}
	if liveHosts == 0 {
		return 0
	}
	return math.Ceil(totalLoad / float64(liveHosts))
}

// Close tears the cluster down: every bridge, then every surviving host's
// cluster session (which stops its shards and forwarders and releases
// every ring and reservation).
func (c *Coordinator) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var errs []error
	for _, b := range c.Bridges() {
		if err := b.teardown(); err != nil {
			errs = append(errs, err)
		}
	}
	c.bridges = make(map[string]*Bridge)
	for _, b := range c.backs {
		if b.dead {
			continue
		}
		if err := b.app.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: host %s: %w", b.name(), err))
		}
	}
	c.placements = make(map[string]*placement)
	c.rootOrder = nil
	if len(errs) > 0 {
		return fmt.Errorf("cluster: close: %v", errs)
	}
	return nil
}
