// Package testbed turns declarative hardware-topology descriptions into
// running simulations.
//
// Every experiment, example and benchmark in this repository used to
// hand-wire the same construction sequence — engine → host → bus → devices
// → depot → runtime → network — with small variations. A Spec captures that
// fabric as data: Pentium IV hosts with per-host buses, heterogeneous
// programmable devices (NIC / GPU / smart-disk classes), Offcode runtimes,
// NAS appliances and the switched network joining them. Build instantiates
// a Spec on a simulation engine, and Sweep runs many replicas of a scenario
// on independent engines across a worker pool, one engine per replica, so
// per-seed results are bit-identical to serial runs while the wall clock
// scales with the core count.
//
// A four-host fabric with a NIC, GPU and disk per host is a few lines:
//
//	spec := testbed.Spec{Net: &testbed.NetSpec{Config: netsim.GigabitSwitched()}}
//	for i := 0; i < 4; i++ {
//		name := fmt.Sprintf("h%d", i)
//		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
//			Name: name,
//			Devices: []device.Config{
//				device.XScaleNIC(name + "-nic"),
//				device.GPU(name + "-gpu"),
//				device.SmartDisk(name + "-disk"),
//			},
//			Stations: []string{name},
//			Runtime:  &core.Config{},
//		})
//	}
//	sys, err := testbed.New(seed, spec)
//
// See DESIGN.md for where this layer sits in the architecture.
package testbed

import (
	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/faults"
	"hydra/internal/hostos"
	"hydra/internal/netsim"
	"hydra/internal/nfs"
	"hydra/internal/obs"
	"hydra/internal/syscall"
)

// Spec is a complete testbed topology. The zero value is an empty world;
// Build fills in defaults for anything left unset (PentiumIV CPUs, PCI
// buses). Construction order follows declaration order, which keeps event
// sequence numbers — and therefore same-instant event ordering — stable
// for a given Spec.
type Spec struct {
	// Name labels the topology in diagnostics.
	Name string
	// Net, when set, creates the switched network joining the hosts.
	// Required if any NAS, host Stations, or free Stations are declared.
	Net *NetSpec
	// Stations are free-standing network endpoints owned by no host
	// (traffic sources/sinks in microbenchmarks).
	Stations []string
	// NAS declares network-attached storage appliances, built before hosts
	// so servers are listening by the time any host logic runs.
	NAS []NASSpec
	// Hosts are the machines of the testbed, built in order.
	Hosts []HostSpec
	// Faults, when non-empty, is the declarative fault schedule replayed
	// against the built system: device crashes and restarts by device
	// name. Build validates every name and arms the schedule on a seed-derived injector, so fault
	// histories are replica-private and bit-identical for a fixed seed.
	Faults faults.Schedule
	// Channels declares named channel configuration profiles — ring depth,
	// zero-copy policy, batching and interrupt coalescing — so scenarios
	// tune the host↔device hot path declaratively. Build validates the
	// names; System.OpenChannel instantiates a profile between a host and
	// one of its devices.
	Channels []ChannelSpec
	// EnginePerHost gives every host its own simulation engine (seeded
	// deterministically from the build seed) instead of sharing one
	// clock. A cluster coordinator can then execute hosts in parallel
	// under a conservative window (sim.Group) — the per-host engines
	// interact only through bridge links with positive latency. The mode
	// excludes the components that inherently share one clock: Net,
	// Stations, NAS and Faults all require a single engine and are
	// rejected by Build when this is set.
	EnginePerHost bool
	// Trace, when set, attaches an obs.Tracer to the built system: one
	// shard on the system engine plus one per private host engine under
	// EnginePerHost, attached in declaration order so shard indices —
	// and therefore merged traces — are deterministic. Components built
	// afterwards (machines, buses, channels, runtimes) pick their shard
	// up from their engine automatically. Read the trace via
	// System.Tracer.
	Trace *obs.Config
}

// ChannelSpec names one channel configuration profile on a Spec.
type ChannelSpec struct {
	// Name identifies the profile; must be unique and non-empty.
	Name string
	// Config is the channel configuration; zero RingEntries/MaxMessage are
	// filled from channel.DefaultConfig.
	Config channel.Config
}

// NetSpec configures the inter-host network.
type NetSpec struct {
	Config netsim.Config
}

// FileSpec is one file pre-loaded onto a NAS. A slice (not a map) so that
// load order is deterministic.
type FileSpec struct {
	Path string
	Data []byte
}

// NASSpec declares one network-attached storage appliance: a station on
// the network running an NFS server over an in-memory store.
type NASSpec struct {
	// Station names the NAS on the network (NFS clients dial this name).
	Station string
	// Config is the NFS service model; zero value → nfs.DefaultServerConfig.
	Config nfs.ServerConfig
	// Files are pre-loaded into the store in order.
	Files []FileSpec
}

// HostSpec declares one host machine (a Pentium IV on the default I/O
// bus): attached programmable devices, network stations, and (optionally) a HYDRA runtime
// with its Offcode depot.
type HostSpec struct {
	// Name identifies the host; must be unique and non-empty.
	Name string
	// Devices are programmable peripherals attached to the host bus, built
	// in order. Device names must be unique across the whole Spec.
	Devices []device.Config
	// Stations are network endpoints owned by this host (a host may own
	// several: e.g. its NIC's link and a smart disk's private link).
	Stations []string
	// Runtime, when non-nil, gives the host a HYDRA runtime plus an empty
	// Offcode depot, with every declared device registered as an offload
	// target. nil hosts get neither (pure traffic generators / baselines).
	Runtime *core.Config
	// Apps declares application sessions to open on the runtime (requires
	// Runtime), in order, so multi-tenant workloads are topology data:
	// each entry becomes a core.App with its quotas and device-memory
	// admission reservation already applied. Sessions are opened after
	// every device is registered, so admission sees the full capacity.
	Apps []AppSpec
	// Monitor, when non-nil (requires Runtime), starts the runtime health
	// monitor over the host's devices: heartbeat probing, failure
	// detection, and automatic Offcode migration onto surviving targets.
	Monitor *core.MonitorConfig
	// IdleLoad, when non-nil, starts background daemons after construction
	// (the paper's "idle system" baseline).
	IdleLoad *hostos.IdleLoadConfig
	// Syscalls, when non-nil, gives every declared device a host-syscall
	// plane at build time: a dedicated batched channel into a dispatcher
	// that counts log lines on the host's VFS ledger, plus a ready-made
	// issuer on the device side. Hosts with a Runtime share the runtime's
	// VFS, so testbed-built planes and session-opened planes
	// (core.App.OpenSyscalls) count on one ledger.
	Syscalls *SyscallSpec
}

// SyscallSpec declares build-time host-syscall planes on a host.
type SyscallSpec struct {
	// Profile sizes every plane: channel batch/coalesce geometry, in-flight
	// credit limit and dispatcher pool width. Zero fields take the
	// syscall package defaults.
	Profile syscall.Profile
}

// AppSpec declares one application session on a host's runtime.
type AppSpec struct {
	// Name identifies the session; must be unique on its host's runtime
	// and non-empty.
	Name string
	// Config carries the session's quotas and admission reservation.
	Config core.AppConfig
}

// DefaultIdleLoad returns a pointer to hostos.DefaultIdleLoad, the common
// HostSpec.IdleLoad value.
func DefaultIdleLoad() *hostos.IdleLoadConfig {
	cfg := hostos.DefaultIdleLoad()
	return &cfg
}
