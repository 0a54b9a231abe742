package testbed

import (
	"fmt"

	"hydra/internal/bus"
	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/faults"
	"hydra/internal/hostos"
	"hydra/internal/netsim"
	"hydra/internal/nfs"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/syscall"
)

// System is a built Spec: every component instantiated on one engine,
// addressable by the names the Spec declared.
type System struct {
	Spec Spec
	Eng  *sim.Engine
	// Net is the inter-host network (nil when the Spec declared none).
	Net *netsim.Network
	// Injector replays the Spec's fault schedule (nil when none declared).
	Injector *faults.Injector
	// Tracer is the observability recorder (nil unless Spec.Trace was set).
	Tracer *obs.Tracer

	hosts    map[string]*HostSystem
	hostList []*HostSystem
	devices  map[string]*device.Device
	stations map[string]*netsim.Station
	nas      map[string]*NASSystem
	channels map[string]channel.Config
}

// HostSystem is one built host with everything attached to it.
type HostSystem struct {
	Spec HostSpec
	// Eng is the engine this host's components run on: the shared
	// System.Eng normally, the host's private engine under
	// Spec.EnginePerHost.
	Eng     *sim.Engine
	Machine *hostos.Machine
	Bus     *bus.Bus
	// Devices holds the host's peripherals in declaration order.
	Devices []*device.Device
	// Stations holds the host's network endpoints in declaration order.
	Stations []*netsim.Station
	// Depot and Runtime are non-nil iff the HostSpec declared a runtime.
	Depot   *depot.Depot
	Runtime *core.Runtime
	// Apps holds the opened application sessions in declaration order.
	Apps []*core.App
	// VFS is the host's device log ledger, non-nil iff the HostSpec
	// declared Syscalls (shared with the runtime's VFS when one exists).
	VFS *hostos.VFS
	// Syscalls holds the built host-syscall planes in device declaration
	// order, one per device the HostSpec.Syscalls selected.
	Syscalls []*SyscallSystem
}

// SyscallSystem is one built device↔host syscall plane.
type SyscallSystem struct {
	Device  *device.Device
	Channel *channel.Channel
	// Service is the host-side dispatcher; Issuer the device-side client,
	// already attached to its endpoint and ready to Issue.
	Service *syscall.Service
	Issuer  *syscall.Issuer
}

// App returns the host's application session with the given name, or nil.
func (h *HostSystem) App(name string) *core.App {
	if h.Runtime == nil {
		return nil
	}
	return h.Runtime.App(name)
}

// Device returns the host device with the given name, or nil.
func (h *HostSystem) Device(name string) *device.Device {
	for _, d := range h.Devices {
		if d.Name() == name {
			return d
		}
	}
	return nil
}

// NASSystem is one built storage appliance.
type NASSystem struct {
	Spec    NASSpec
	Station *netsim.Station
	Store   *nfs.Store
	Server  *nfs.Server
}

// New creates a fresh engine from seed and builds spec on it.
func New(seed int64, spec Spec) (*System, error) {
	return Build(sim.NewEngine(seed), spec)
}

// Build instantiates spec on eng. Components are constructed strictly in
// declaration order — network, free stations, NAS appliances, then each
// host (machine, bus, devices, stations, depot+runtime, idle load) — so a
// given Spec always yields the same event sequence numbering and therefore
// bit-identical simulations for a fixed seed.
func Build(eng *sim.Engine, spec Spec) (*System, error) {
	sys := &System{
		Spec:     spec,
		Eng:      eng,
		hosts:    make(map[string]*HostSystem),
		devices:  make(map[string]*device.Device),
		stations: make(map[string]*netsim.Station),
		nas:      make(map[string]*NASSystem),
		channels: make(map[string]channel.Config),
	}

	for _, cs := range spec.Channels {
		if cs.Name == "" {
			return nil, fmt.Errorf("testbed: %s declares an unnamed channel profile", label(spec))
		}
		if _, dup := sys.channels[cs.Name]; dup {
			return nil, fmt.Errorf("testbed: duplicate channel profile %q", cs.Name)
		}
		cfg := cs.Config
		def := channel.DefaultConfig()
		if cfg.RingEntries == 0 {
			cfg.RingEntries = def.RingEntries
		}
		if cfg.MaxMessage == 0 {
			cfg.MaxMessage = def.MaxMessage
		}
		sys.channels[cs.Name] = cfg
	}

	if spec.Trace != nil {
		// Attach before any component construction so every machine, bus,
		// channel and runtime finds its shard on its engine.
		sys.Tracer = obs.NewTracer(*spec.Trace)
		sysLabel := spec.Name
		if sysLabel == "" {
			sysLabel = "system"
		}
		sys.Tracer.Attach(eng, sysLabel)
	}

	needsNet := len(spec.Stations) > 0 || len(spec.NAS) > 0
	for _, h := range spec.Hosts {
		needsNet = needsNet || len(h.Stations) > 0
	}
	if spec.EnginePerHost {
		// These components all schedule on one shared clock; a split-clock
		// build would silently couple engines and break window parallelism.
		if spec.Net != nil || needsNet {
			return nil, fmt.Errorf("testbed: %s: EnginePerHost excludes Net/Stations/NAS", label(spec))
		}
		if len(spec.Faults) > 0 {
			return nil, fmt.Errorf("testbed: %s: EnginePerHost excludes Faults", label(spec))
		}
	}
	if spec.Net != nil {
		sys.Net = netsim.New(eng, spec.Net.Config)
	} else if needsNet {
		return nil, fmt.Errorf("testbed: %s declares stations or NAS but no Net", label(spec))
	}

	for _, name := range spec.Stations {
		if _, err := sys.attach(name); err != nil {
			return nil, err
		}
	}

	for _, n := range spec.NAS {
		st, err := sys.attach(n.Station)
		if err != nil {
			return nil, err
		}
		store := nfs.NewStore()
		for _, f := range n.Files {
			store.Put(f.Path, f.Data)
		}
		cfg := n.Config
		if cfg == (nfs.ServerConfig{}) {
			cfg = nfs.DefaultServerConfig()
		}
		sys.nas[n.Station] = &NASSystem{
			Spec:    n,
			Station: st,
			Store:   store,
			Server:  nfs.NewServer(eng, st, store, cfg),
		}
	}

	for _, h := range spec.Hosts {
		if h.Name == "" {
			return nil, fmt.Errorf("testbed: %s has an unnamed host", label(spec))
		}
		if _, dup := sys.hosts[h.Name]; dup {
			return nil, fmt.Errorf("testbed: duplicate host %q", h.Name)
		}
		heng := eng
		if spec.EnginePerHost {
			// Derive the host engine seed with the same golden-ratio mix
			// NewRand uses, keyed by host position: deterministic for a
			// fixed build seed, distinct per host.
			const mix = int64(-0x61c8864680b583eb)
			heng = sim.NewEngine(eng.Seed() ^ (int64(len(sys.hostList)+1) * mix))
			if sys.Tracer != nil {
				sys.Tracer.Attach(heng, h.Name)
			}
		}
		hs := &HostSystem{Spec: h, Eng: heng}
		hs.Machine = hostos.New(heng, h.Name, hostos.PentiumIV())
		hs.Bus = bus.New(heng, bus.DefaultConfig())
		for _, dc := range h.Devices {
			if dc.Name == "" {
				return nil, fmt.Errorf("testbed: host %q has an unnamed device", h.Name)
			}
			if _, dup := sys.devices[dc.Name]; dup {
				return nil, fmt.Errorf("testbed: duplicate device %q", dc.Name)
			}
			d := device.New(heng, hs.Machine, hs.Bus, dc)
			hs.Devices = append(hs.Devices, d)
			sys.devices[dc.Name] = d
		}
		for _, name := range h.Stations {
			st, err := sys.attach(name)
			if err != nil {
				return nil, err
			}
			hs.Stations = append(hs.Stations, st)
		}
		if h.Runtime != nil {
			hs.Depot = depot.New()
			hs.Runtime = core.New(heng, hs.Machine, hs.Bus, hs.Depot, *h.Runtime)
			for _, d := range hs.Devices {
				hs.Runtime.RegisterDevice(d)
			}
			for _, as := range h.Apps {
				if as.Name == "" {
					return nil, fmt.Errorf("testbed: host %q declares an unnamed app", h.Name)
				}
				app, err := hs.Runtime.OpenApp(as.Name, as.Config)
				if err != nil {
					return nil, fmt.Errorf("testbed: host %q: %w", h.Name, err)
				}
				hs.Apps = append(hs.Apps, app)
			}
			if h.Monitor != nil {
				hs.Runtime.StartMonitor(*h.Monitor)
			}
		} else if h.Monitor != nil {
			return nil, fmt.Errorf("testbed: host %q declares a Monitor but no Runtime", h.Name)
		} else if len(h.Apps) > 0 {
			return nil, fmt.Errorf("testbed: host %q declares Apps but no Runtime", h.Name)
		}
		if h.Syscalls != nil {
			if err := sys.buildSyscalls(hs, h.Syscalls); err != nil {
				return nil, err
			}
		}
		if h.IdleLoad != nil {
			hs.Machine.StartIdleLoad(*h.IdleLoad)
		}
		sys.hosts[h.Name] = hs
		sys.hostList = append(sys.hostList, hs)
	}

	if len(spec.Faults) > 0 {
		sys.Injector = faults.NewInjector(eng)
		if err := sys.Injector.Arm(spec.Faults, sys); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// buildSyscalls wires one host-syscall plane per selected device: a
// dedicated batched channel carrying call-coded requests device→host and
// completions host→device, a dispatcher Service over the host VFS, and an
// attached Issuer on the device side. Hosts with a runtime share the
// runtime's VFS so session-opened planes count on the same ledger.
func (sys *System) buildSyscalls(hs *HostSystem, sc *SyscallSpec) error {
	if hs.Runtime != nil {
		hs.VFS = hs.Runtime.VFS()
	} else {
		hs.VFS = hostos.NewVFS(hs.Machine)
	}
	if len(hs.Devices) == 0 {
		return fmt.Errorf("testbed: host %q declares Syscalls but has no devices", hs.Spec.Name)
	}
	for _, d := range hs.Devices {
		host := channel.HostEndpoint(hs.Machine, "syscall:"+hs.Spec.Name)
		ch, err := channel.New(hs.Eng, hs.Bus, sc.Profile.ChannelConfig(), host)
		if err != nil {
			return fmt.Errorf("testbed: host %q syscall channel: %w", hs.Spec.Name, err)
		}
		dend := channel.DeviceEndpoint(d, "syscall@"+d.Name())
		if err := ch.Connect(dend); err != nil {
			return fmt.Errorf("testbed: host %q syscall channel: %w", hs.Spec.Name, err)
		}
		svc := syscall.NewService(hs.VFS, sc.Profile)
		svc.Attach(host)
		iss := syscall.NewIssuer(d, sc.Profile, nil)
		iss.Attach(dend)
		hs.Syscalls = append(hs.Syscalls, &SyscallSystem{Device: d, Channel: ch, Service: svc, Issuer: iss})
	}
	return nil
}

func (sys *System) attach(name string) (*netsim.Station, error) {
	if name == "" {
		return nil, fmt.Errorf("testbed: %s declares an unnamed station", label(sys.Spec))
	}
	if _, dup := sys.stations[name]; dup {
		return nil, fmt.Errorf("testbed: duplicate station %q", name)
	}
	st := sys.Net.Attach(name)
	sys.stations[name] = st
	return st, nil
}

func label(spec Spec) string {
	if spec.Name != "" {
		return fmt.Sprintf("spec %q", spec.Name)
	}
	return "spec"
}

// Host returns the built host with the given name, or nil.
func (sys *System) Host(name string) *HostSystem { return sys.hosts[name] }

// Hosts returns every built host in declaration order.
func (sys *System) Hosts() []*HostSystem { return sys.hostList }

// RuntimeHosts returns the hosts that carry a HYDRA runtime, in
// declaration order — the placement backends a cluster coordinator
// schedules over. Pure traffic-generator hosts are excluded.
func (sys *System) RuntimeHosts() []*HostSystem {
	out := make([]*HostSystem, 0, len(sys.hostList))
	for _, h := range sys.hostList {
		if h.Runtime != nil {
			out = append(out, h)
		}
	}
	return out
}

// Device returns the device with the given name from any host, or nil.
func (sys *System) Device(name string) *device.Device { return sys.devices[name] }

// OpenChannel instantiates the named channel profile between a host and a
// device: the creator endpoint runs on the host (an OA-application side),
// the peer endpoint on the device (the Offcode side). Returned in that
// order alongside the channel itself.
func (sys *System) OpenChannel(profile, host, dev string) (*channel.Channel, *channel.Endpoint, *channel.Endpoint, error) {
	cfg, ok := sys.channels[profile]
	if !ok {
		return nil, nil, nil, fmt.Errorf("testbed: unknown channel profile %q", profile)
	}
	h := sys.hosts[host]
	if h == nil {
		return nil, nil, nil, fmt.Errorf("testbed: unknown host %q", host)
	}
	// Resolve the device on this host specifically: a channel rides the
	// host's own bus, so a device attached elsewhere must be rejected, not
	// silently wired across fabrics.
	d := h.Device(dev)
	if d == nil {
		return nil, nil, nil, fmt.Errorf("testbed: host %q has no device %q", host, dev)
	}
	app := channel.HostEndpoint(h.Machine, profile+":"+host)
	ch, err := channel.New(h.Eng, h.Bus, cfg, app)
	if err != nil {
		return nil, nil, nil, err
	}
	oc := channel.DeviceEndpoint(d, profile+":"+dev)
	if err := ch.Connect(oc); err != nil {
		return nil, nil, nil, err
	}
	return ch, app, oc, nil
}

// Station returns the network station with the given name, or nil.
func (sys *System) Station(name string) *netsim.Station { return sys.stations[name] }

// NAS returns the storage appliance at the given station name, or nil.
func (sys *System) NAS(station string) *NASSystem { return sys.nas[station] }

func (sys *System) String() string {
	return fmt.Sprintf("testbed(%s: %d hosts, %d devices, %d NAS, seed=%d)",
		label(sys.Spec), len(sys.hostList), len(sys.devices), len(sys.nas), sys.Eng.Seed())
}
