package core

import (
	"errors"
	"fmt"

	"hydra/internal/channel"
	"hydra/internal/resource"
)

// This file is the client-facing session layer of the programming model:
// an OA-application opens an App session with OpenApp, deploys through
// DeployPlan (plan.go), and tears everything down with App.Close. Each
// session owns a subtree of the runtime's resource tree, so quotas bound
// the whole session and closing it reclaims every Offcode, channel and
// pinned region the application ever created — the paper's hierarchical
// resource management (§4) applied at application granularity.

// Quota kinds booked in an App's resource subtree.
const (
	// QuotaMemory is pinned host memory in bytes (App.PinMemory plus the
	// host-side ring of every App.CreateChannel).
	QuotaMemory = "memory"
	// QuotaChannels counts concurrently open app-created channels.
	QuotaChannels = "channels"
	// QuotaOffcodes counts live Offcodes owned by the session.
	QuotaOffcodes = "offcodes"
	// QuotaDeviceMemory is device-local memory in bytes booked by the
	// session's Offcode loads, capped by its admission reservation.
	QuotaDeviceMemory = "device-memory"
)

// defaultAppName names the runtime's own session (Runtime.DefaultApp). It
// adopts runtime-internal deployments, such as failover redeploys of roots
// whose owning session has closed.
const defaultAppName = "default"

// Typed session errors.
var (
	// ErrAppExists reports an OpenApp name collision.
	ErrAppExists = errors.New("core: app already open")
	// ErrAppClosed reports use of a closed session.
	ErrAppClosed = errors.New("core: app closed")
	// ErrAdmission reports an OpenApp rejected by admission control: the
	// requested device-memory reservation exceeds what the healthy devices
	// can still offer.
	ErrAdmission = errors.New("core: admission rejected")
	// ErrDuplicateBind reports a bind name that is already deployed (from a
	// different ODF) or already present in the plan.
	ErrDuplicateBind = errors.New("core: duplicate bind name")
)

// AppConfig sizes an application session at admission time.
type AppConfig struct {
	// MemoryQuota bounds pinned host memory booked by the session, in
	// bytes (0 = unlimited).
	MemoryQuota int64
	// ChannelQuota bounds concurrently open app-created channels
	// (0 = unlimited).
	ChannelQuota int64
	// OffcodeQuota bounds live Offcodes owned by the session
	// (0 = unlimited).
	OffcodeQuota int64
	// DeviceMemory is the device-local memory, in bytes, the session asks
	// the runtime to set aside at admission. OpenApp fails with
	// ErrAdmission when the healthy devices' aggregate capacity cannot
	// cover all outstanding reservations plus this one; Close returns the
	// reservation. The reservation is enforced: the session's Offcode
	// loads charge QuotaDeviceMemory against it (0 = no reservation, no
	// cap), so an admitted tenant's allocations draw down its own
	// reservation and never double-count against later tenants.
	DeviceMemory int64
}

// App is one application session: the identity every deployment, channel
// and pinned region is accounted to.
type App struct {
	rt     *Runtime
	name   string
	cfg    AppConfig
	res    *resource.Node
	closed bool

	// handles are the session's live non-pseudo Offcodes in instantiation
	// order; Close stops them in reverse (importers before imports).
	handles []*Handle
}

// OpenApp admits a new application session. The name must be unique among
// open sessions; the config's DeviceMemory reservation is checked against
// the aggregate free memory of the currently healthy devices.
func (rt *Runtime) OpenApp(name string, cfg AppConfig) (*App, error) {
	if name == "" {
		return nil, fmt.Errorf("core: app name must be non-empty")
	}
	if _, dup := rt.apps[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrAppExists, name)
	}
	if cfg.DeviceMemory < 0 {
		return nil, fmt.Errorf("core: app %s: negative device-memory reservation", name)
	}
	if cfg.DeviceMemory > 0 {
		// Physically free memory minus the unfilled part of every existing
		// reservation: what is actually promisable. Counting live bytes
		// (not reservations) means allocations by unreserved sessions —
		// the default shim session, direct AllocMem users — also shrink
		// the pool, while an admitted tenant's own loads merely fill the
		// reservation it already holds.
		free := rt.FreeDeviceMemory() - rt.unfilledReservations()
		if cfg.DeviceMemory > free {
			return nil, fmt.Errorf("%w: app %s wants %d B of device memory, %d B unreserved",
				ErrAdmission, name, cfg.DeviceMemory, free)
		}
	}
	node, err := rt.root.NewChild("app:"+name, nil)
	if err != nil {
		return nil, err
	}
	node.SetLimit(QuotaMemory, cfg.MemoryQuota)
	node.SetLimit(QuotaChannels, cfg.ChannelQuota)
	node.SetLimit(QuotaOffcodes, cfg.OffcodeQuota)
	// The admission reservation is enforced, not advisory: the session's
	// Offcode loads charge QuotaDeviceMemory against it, so one tenant
	// cannot consume another admitted tenant's promised capacity.
	node.SetLimit(QuotaDeviceMemory, cfg.DeviceMemory)
	a := &App{rt: rt, name: name, cfg: cfg, res: node}
	rt.apps[name] = a
	return a, nil
}

// App returns the open session with the given name, or nil.
func (rt *Runtime) App(name string) *App { return rt.apps[name] }

// FreeDeviceMemory sums the currently unallocated local memory of the
// healthy devices (capacity minus live allocations). Admission subtracts
// the unfilled reservations from this to decide what is promisable.
func (rt *Runtime) FreeDeviceMemory() int64 {
	var free int64
	for _, d := range rt.availableDevices() {
		free += int64(d.Config().LocalMemBytes - d.MemLive())
	}
	return free
}

// unfilledReservations sums, across open sessions, the part of each
// device-memory reservation its owner has not yet allocated — capacity
// that is promised but not yet physically consumed.
func (rt *Runtime) unfilledReservations() int64 {
	var sum int64
	for _, a := range rt.apps {
		if a.cfg.DeviceMemory <= 0 {
			continue
		}
		if used := a.res.Usage(QuotaDeviceMemory); used < a.cfg.DeviceMemory {
			sum += a.cfg.DeviceMemory - used
		}
	}
	return sum
}

// Name returns the session name.
func (a *App) Name() string { return a.name }

// Runtime returns the owning runtime.
func (a *App) Runtime() *Runtime { return a.rt }

// PinMemory pins size bytes of host memory for the session (the Memory
// Management service of §4, charged against the session's memory quota).
// The returned node releases the quota and returns the bytes to the host
// ledger when closed.
func (a *App) PinMemory(size int) (uint64, *resource.Node, error) {
	if a.closed {
		return 0, nil, fmt.Errorf("%w: %s", ErrAppClosed, a.name)
	}
	if size <= 0 {
		return 0, nil, fmt.Errorf("core: pin of %d bytes", size)
	}
	if err := a.res.Charge(QuotaMemory, int64(size)); err != nil {
		return 0, nil, err
	}
	addr := a.rt.host.Alloc(size)
	node, err := a.res.NewChild(fmt.Sprintf("pin@%#x(%d)", addr, size), func() error {
		a.res.Release(QuotaMemory, int64(size))
		a.rt.host.Free(addr, size)
		return nil
	})
	if err != nil {
		a.res.Release(QuotaMemory, int64(size))
		a.rt.host.Free(addr, size)
		return 0, nil, err
	}
	return addr, node, nil
}

// CreateChannel builds a channel from the application to target through
// the Channel Executive, owned by — and charged to — this session: one
// channel against the channel quota plus the host-side ring footprint
// against the memory quota. Closing the session closes the channel.
func (a *App) CreateChannel(cfg channel.Config, target *Handle) (*channel.Endpoint, *channel.Channel, error) {
	appEnd, ch, _, err := a.CreateChannelOwned(cfg, target)
	return appEnd, ch, err
}

// CreateChannelOwned is CreateChannel returning, additionally, the resource
// node that owns the channel. Closing that node closes the channel, frees
// its ring memory and releases the session quotas it booked — for callers
// (like a cluster bridge) that retire individual channels before the
// session ends. Closing the session still closes the channel either way.
func (a *App) CreateChannelOwned(cfg channel.Config, target *Handle) (*channel.Endpoint, *channel.Channel, *resource.Node, error) {
	if a.closed {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrAppClosed, a.name)
	}
	ring := int64(channel.RingFootprint(cfg))
	if err := a.res.Charge(QuotaChannels, 1); err != nil {
		return nil, nil, nil, err
	}
	if err := a.res.Charge(QuotaMemory, ring); err != nil {
		a.res.Release(QuotaChannels, 1)
		return nil, nil, nil, err
	}
	appEnd, ch, node, err := a.rt.createChannelUnder(a.res, cfg, target, func() {
		a.res.Release(QuotaChannels, 1)
		a.res.Release(QuotaMemory, ring)
	})
	if err != nil {
		a.res.Release(QuotaChannels, 1)
		a.res.Release(QuotaMemory, ring)
		return nil, nil, nil, err
	}
	return appEnd, ch, node, nil
}

// StopOffcode stops one of the session's Offcodes (and forgets its root,
// so failover will not resurrect it).
func (a *App) StopOffcode(h *Handle) error {
	if h.app != a {
		return fmt.Errorf("core: %s is not owned by app %s", h.BindName, a.name)
	}
	return a.rt.StopOffcode(h)
}

// Close tears the session down: its Offcodes stop in reverse dependency
// (instantiation) order, every channel and pinned region in the subtree is
// released, its deployment roots are forgotten, and its device-memory
// reservation returns to the admission pool. Closing twice is a no-op.
func (a *App) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	var errs []error
	// Stop in reverse instantiation order — importers were instantiated
	// after their imports, so dependents go first, exactly like failover.
	for i := len(a.handles) - 1; i >= 0; i-- {
		h := a.handles[i]
		a.rt.forgetRoot(h.BindName)
		if err := a.rt.stopHandle(h); err != nil {
			errs = append(errs, fmt.Errorf("core: app %s: stop %s: %w", a.name, h.BindName, err))
		}
	}
	a.handles = nil
	if err := a.res.Close(); err != nil {
		errs = append(errs, err)
	}
	delete(a.rt.apps, a.name)
	return errors.Join(errs...)
}

// adopt records a freshly instantiated handle as session-owned.
func (a *App) adopt(h *Handle) {
	h.app = a
	a.handles = append(a.handles, h)
}

// disown drops a stopped handle from the session's live list.
func (a *App) disown(h *Handle) {
	for i, other := range a.handles {
		if other == h {
			a.handles = append(a.handles[:i], a.handles[i+1:]...)
			return
		}
	}
}
