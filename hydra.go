// Package hydra is the public facade of the HYDRA reproduction: a
// programming model and runtime for offloading application components
// ("Offcodes") to programmable peripheral devices, after Weinsberg et al.,
// "Tapping into the Fountain of CPUs — On Operating System Support for
// Programmable Devices", ASPLOS 2008.
//
// The package re-exports the API surface the examples and docs use. A
// typical OA-application declares its machine — including its
// application sessions — as a testbed spec, builds it in one step, and
// deploys through a transactional plan:
//
//	sys, err := hydra.NewTestbed(1, hydra.TestbedSpec{
//		Hosts: []hydra.HostSpec{{
//			Name:    "host",
//			Devices: []hydra.DeviceConfig{hydra.XScaleNIC("nic0")},
//			Runtime: &hydra.RuntimeConfig{},
//			Apps:    []hydra.AppSpec{{Name: "myapp"}},
//		}},
//	})
//	app := sys.Host("host").App("myapp")
//	// stock sys.Host("host").Depot with ODFs, objects and factories, then:
//	plan := app.Plan()
//	_ = plan.AddRoot("/offcodes/checksum.odf") // rejects duplicate binds
//	plan.Commit(func(dep *hydra.Deployment, err error) { ... }) // solve, then deploy atomically
//	sys.Eng.Run(hydra.Seconds(1))
//	_ = app.Close() // stops the app's Offcodes, releases every ring and pin
//
// Sessions carry memory/channel/Offcode quotas and an admission-controlled
// device-memory reservation; Commit rolls back every Offcode and pinned
// ring on partial failure. A committed deployment stays mutable: later
// plans deploy further roots into the live session, and App.Replace
// hot-swaps one running Offcode with its channel traffic quiesced, held
// and replayed exactly once.
//
// Above the single host, NewCluster opens a coordinator over every runtime
// host of a multi-host testbed: it shards an Offcode graph across machines
// with cluster-wide rollback, bridges cross-host edges over simulated
// links, migrates a dead machine's checkpointed Offcodes, and re-shards a
// live deployment incrementally — the plan commit, shard adds and
// migration all through one shard transaction. NewAutoscaler grows and shrinks a shard
// set from observed per-epoch load, and Sweep runs scenario fleets, one
// engine per replica on a worker pool, bit-identical to a serial loop.
//
// See README.md for the quickstart, examples/ for complete programs and
// DESIGN.md for the architecture.
package hydra

import (
	"hydra/internal/autoscale"
	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/objfile"
	"hydra/internal/odf"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// HYDRA programming model and runtime.
type (
	// DeviceConfig configures a programmable peripheral.
	DeviceConfig = device.Config
	// Runtime is the HYDRA runtime: deployment, channels, resources.
	Runtime = core.Runtime
	// RuntimeConfig tunes the layout resolver and loader choices.
	RuntimeConfig = core.Config
	// AppConfig sizes a session at admission: quotas plus the
	// device-memory reservation admission control checks.
	AppConfig = core.AppConfig
	// Deployment is the typed result of a deployment plan's Commit.
	Deployment = core.Deployment
	// OffcodeContext is passed to Offcode.Initialize.
	OffcodeContext = core.Context
	// Channel is a communication pathway between endpoints.
	Channel = channel.Channel
	// Endpoint is one end of a channel.
	Endpoint = channel.Endpoint
)

// Declarative testbed layer: topologies as data, scenarios as a fleet.
type (
	// TestbedSpec declares a whole topology — hosts, devices, buses,
	// runtimes, NAS appliances, network — as data for NewTestbed.
	TestbedSpec = testbed.Spec
	// HostSpec declares one host inside a TestbedSpec.
	HostSpec = testbed.HostSpec
	// AppSpec declares one application session on a host's runtime, so
	// multi-tenant workloads are topology data.
	AppSpec = testbed.AppSpec
	// NetSpec declares the inter-host network.
	NetSpec = testbed.NetSpec
	// SweepConfig sizes a parallel scenario sweep.
	SweepConfig = testbed.SweepConfig
	// Replica identifies one run of a sweep (index + seed).
	Replica = testbed.Replica
)

// Cluster and autoscaling configuration.
type (
	// ClusterConfig tunes a NewCluster coordinator: the per-host session
	// name, host capacity, the inter-host link model and the bridge
	// channel profile.
	ClusterConfig = cluster.Config
	// AutoscaleConfig sets a NewAutoscaler controller's per-shard
	// capacity, utilization hysteresis band, shard-count bounds and action
	// cooldown.
	AutoscaleConfig = autoscale.Config
)

// Sweep runs one scenario replica per seed on a worker pool, each replica
// on its own engine; results come back in replica order and are
// bit-identical to a serial loop. See testbed.Sweep.
func Sweep[T any](cfg SweepConfig, run func(Replica) (T, error)) ([]T, error) {
	return testbed.Sweep(cfg, run)
}

// Constructors and helpers.
var (
	// NewTestbed creates an engine from seed and builds a TestbedSpec on it.
	NewTestbed = testbed.New
	// SmartDiskDevice is a programmable storage-controller profile (§6.1).
	SmartDiskDevice = device.SmartDisk
	// XScaleNIC is a programmable-NIC profile like the paper's 3Com card.
	XScaleNIC = device.XScaleNIC
	// NewCluster opens a cluster coordinator over every runtime host of a
	// built testbed.
	NewCluster = cluster.New
	// NewAutoscaler creates an epoch-driven autoscale controller over a
	// target shard set.
	NewAutoscaler = autoscale.New
	// DefaultChannelConfig is the Figure 3 channel: zero-copy, with the
	// reliable, sequential, unicast delivery every channel has.
	DefaultChannelConfig = channel.DefaultConfig
	// ParseInterface parses an interface definition.
	ParseInterface = odf.ParseInterface
	// SynthesizeObject fabricates an HOBJ Offcode binary.
	SynthesizeObject = objfile.Synthesize
	// Seconds converts seconds to virtual Time.
	Seconds = sim.Seconds
)

// ErrDuplicateBind reports a bind name already deployed from a different
// ODF or already present in a plan.
var ErrDuplicateBind = core.ErrDuplicateBind
