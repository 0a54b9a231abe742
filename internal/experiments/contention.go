package experiments

import (
	"errors"
	"fmt"
	"strings"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/resource"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// X8: multi-application contention over one runtime. N tenants open
// application sessions against a host with two programmable NICs, each
// reserving device memory at admission and carrying per-session memory
// quotas. Admitted tenants deploy a NIC-resident worker through a
// transactional plan, open a session-owned channel to it, and stream a
// fixed message schedule. The experiment sweeps app count × quota profile
// × layout resolver and reports admission rejections, quota denials,
// per-app throughput isolation (every admitted tenant must deliver the
// identical message count), and teardown reclamation (closing every
// session must return the host pinned-memory ledger and the device
// Offcode population exactly to their pre-open values).

// X8Duration is the per-cell simulated time.
const X8Duration = 1 * sim.Second

// X8MsgBytes is the per-message payload.
const X8MsgBytes = 1024

// x8ReserveBytes is each tenant's device-memory admission reservation.
const x8ReserveBytes = 384 << 10

// x8PinBytes is the host buffer each admitted tenant tries to pin.
const x8PinBytes = 128 << 10

// ContentionRow is one (apps, quota, resolver) cell's outcome.
type ContentionRow struct {
	Scenario string
	Apps     int
	Resolver core.Resolver
	// TightQuota marks the profile whose session memory quota denies the
	// tenants' pin attempts.
	TightQuota bool
	// Admitted / Rejected split the tenants at admission control.
	Admitted, Rejected int
	// QuotaDenied counts pins rejected by the per-session memory quota.
	QuotaDenied int
	// MinMsgs / MaxMsgs bound per-tenant delivered messages; isolation
	// means they are equal (and positive).
	MinMsgs, MaxMsgs uint64
	// ReclaimedHostBytes is host pinned memory returned by closing every
	// session; LeakedHostBytes is what the ledger still held afterwards
	// relative to the pre-open baseline (must be zero).
	ReclaimedHostBytes int64
	LeakedHostBytes    int64
	// LeakedOffcodes counts Offcodes still deployed after teardown (must
	// be zero).
	LeakedOffcodes int
	// LiveDeviceBytes is device-local memory still booked after teardown.
	LiveDeviceBytes int
}

// ContentionResults holds X8.
type ContentionResults struct {
	Duration sim.Time
	Rows     []ContentionRow
}

// contentionVariants is the app-count × quota × resolver grid.
func contentionVariants() []struct {
	name     string
	apps     int
	tight    bool
	resolver core.Resolver
} {
	type v = struct {
		name     string
		apps     int
		tight    bool
		resolver core.Resolver
	}
	var out []v
	for _, apps := range []int{4, 12} {
		for _, tight := range []bool{false, true} {
			for _, res := range []core.Resolver{core.ResolveGreedy, core.ResolveILP} {
				quota, solver := "open quota", "greedy"
				if tight {
					quota = "tight quota"
				}
				if res == core.ResolveILP {
					solver = "ilp"
				}
				out = append(out, v{
					name:     fmt.Sprintf("%d apps, %s, %s", apps, quota, solver),
					apps:     apps,
					tight:    tight,
					resolver: res,
				})
			}
		}
	}
	return out
}

// RunContention executes the X8 grid through testbed.Sweep on workers
// goroutines (0 = GOMAXPROCS, 1 = serial; one private engine per cell,
// results bit-identical for any workers value).
func RunContention(seed int64, duration sim.Time, workers int) (*ContentionResults, error) {
	variants := contentionVariants()
	rows, err := testbed.Sweep(testbed.SweepConfig{Seeds: sameSeed(seed, len(variants)), Workers: workers},
		func(r testbed.Replica) (*ContentionRow, error) {
			v := variants[r.Index]
			row, err := RunContentionCell(r.Seed, duration, v.apps, v.tight, v.resolver)
			if err != nil {
				return nil, err
			}
			row.Scenario = v.name
			return row, nil
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: contention: %w", err)
	}
	out := &ContentionResults{Duration: duration}
	for _, row := range rows {
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// x8Worker counts messages arriving at the tenant's NIC-resident Offcode.
type x8Worker struct {
	nopOffcode
	Received uint64
}

func (w *x8Worker) ChannelConnected(ep *channel.Endpoint) {
	ep.InstallCallHandler(func([]byte) { w.Received++ })
}

// RunContentionCell admits up to apps tenants against two NICs, streams
// each admitted tenant's schedule, and tears every session down.
func RunContentionCell(seed int64, duration sim.Time, apps int, tight bool, resolver core.Resolver) (*ContentionRow, error) {
	spec := testbed.Spec{
		Name: "x8-contention",
		Hosts: []testbed.HostSpec{{
			Name:    "host",
			Devices: []device.Config{device.XScaleNIC("nic0"), device.XScaleNIC("nic1")},
			Runtime: &core.Config{Resolver: resolver},
		}},
	}
	sys, err := testbed.New(seed, spec)
	if err != nil {
		return nil, err
	}
	eng := sys.Eng
	hs := sys.Host("host")
	rt, dep := hs.Runtime, hs.Depot
	baseline := hs.Machine.LiveBytes()

	row := &ContentionRow{Apps: apps, Resolver: resolver, TightQuota: tight}
	var memQuota int64 // 0 = unlimited
	if tight {
		// Room for the channel ring but not the pin attempt.
		memQuota = int64(x8PinBytes)/2 + 64<<10
	}

	// Admission: open sessions in tenant order until device capacity runs
	// out; later tenants are rejected, not queued.
	type tenant struct {
		app    *core.App
		worker *x8Worker
		send   *channel.Endpoint
		ch     *channel.Channel
	}
	var tenants []*tenant
	for i := 0; i < apps; i++ {
		app, err := rt.OpenApp(fmt.Sprintf("tenant-%02d", i), core.AppConfig{
			MemoryQuota:  memQuota,
			ChannelQuota: 1,
			OffcodeQuota: 1,
			DeviceMemory: x8ReserveBytes,
		})
		if err != nil {
			if !errors.Is(err, core.ErrAdmission) {
				return nil, err
			}
			row.Rejected++
			continue
		}
		tenants = append(tenants, &tenant{app: app})
	}
	row.Admitted = len(tenants)

	// Each admitted tenant stocks and deploys its private worker, then
	// opens a session-owned channel to it and tries to pin a host buffer.
	chCfg := channel.Config{
		ZeroCopyRead: true, ZeroCopyWrite: true,
		RingEntries: 64, MaxMessage: X8MsgBytes,
	}
	for i, t := range tenants {
		bind := fmt.Sprintf("x8.Worker%02d", i)
		g := guid.GUID(9100 + i)
		worker := &x8Worker{}
		t.worker = worker
		if err := stockOffcode(dep, "/x8/"+bind+".odf", bind, g, 4<<10, nicImports,
			func() any { return worker }); err != nil {
			return nil, err
		}
		handle, err := deployRoot(t.app, eng, "/x8/"+bind+".odf", bind)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		send, ch, _, err := t.app.CreateChannel(chCfg, handle)
		if err != nil {
			return nil, fmt.Errorf("tenant %d channel: %w", i, err)
		}
		t.send, t.ch = send, ch
		if _, _, err := t.app.PinMemory(x8PinBytes); err != nil {
			var qerr *resource.QuotaError
			if !errors.As(err, &qerr) {
				return nil, fmt.Errorf("tenant %d pin: %w", i, err)
			}
			row.QuotaDenied++
		}
	}

	// The shared schedule: every tenant sends the same message count on
	// the same instants, so per-app deliveries measure isolation directly.
	payload := make([]byte, X8MsgBytes)
	period := 5 * sim.Millisecond
	for at := period; at < duration; at += period {
		for _, t := range tenants {
			ep := t.send
			eng.At(at, func() {
				if err := ep.Write(payload); err != nil {
					panic(err) // reliable channel: Write cannot fail mid-run
				}
			})
		}
	}
	eng.RunAll()

	for i, t := range tenants {
		got := t.worker.Received
		if i == 0 || got < row.MinMsgs {
			row.MinMsgs = got
		}
		if got > row.MaxMsgs {
			row.MaxMsgs = got
		}
	}

	// Teardown reclamation: closing every session stops its Offcodes in
	// reverse dependency order and releases every ring and pin.
	before := hs.Machine.LiveBytes()
	for _, t := range tenants {
		if err := t.app.Close(); err != nil {
			return nil, err
		}
	}
	row.ReclaimedHostBytes = before - hs.Machine.LiveBytes()
	row.LeakedHostBytes = hs.Machine.LiveBytes() - baseline
	for _, name := range rt.Offcodes() {
		h, err := rt.GetOffcode(name)
		if err == nil && !h.Pseudo() {
			row.LeakedOffcodes++
		}
	}
	row.LiveDeviceBytes = sys.Device("nic0").MemLive() + sys.Device("nic1").MemLive()
	return row, nil
}

// CheckContentionShape asserts the qualitative X8 outcome.
func CheckContentionShape(r *ContentionResults) error {
	for _, row := range r.Rows {
		if row.Admitted == 0 {
			return fmt.Errorf("experiments: contention: %s admitted no tenants", row.Scenario)
		}
		if row.Admitted+row.Rejected != row.Apps {
			return fmt.Errorf("experiments: contention: %s lost tenants (%d+%d != %d)",
				row.Scenario, row.Admitted, row.Rejected, row.Apps)
		}
		if row.Apps > 8 && row.Rejected == 0 {
			return fmt.Errorf("experiments: contention: %s oversubscribed but nothing rejected", row.Scenario)
		}
		if row.Apps <= 8 && row.Rejected != 0 {
			return fmt.Errorf("experiments: contention: %s rejected %d tenants within capacity",
				row.Scenario, row.Rejected)
		}
		if row.TightQuota && row.QuotaDenied != row.Admitted {
			return fmt.Errorf("experiments: contention: %s denied %d of %d pins under the tight quota",
				row.Scenario, row.QuotaDenied, row.Admitted)
		}
		if !row.TightQuota && row.QuotaDenied != 0 {
			return fmt.Errorf("experiments: contention: %s denied %d pins without a quota",
				row.Scenario, row.QuotaDenied)
		}
		if row.MinMsgs == 0 || row.MinMsgs != row.MaxMsgs {
			return fmt.Errorf("experiments: contention: %s throughput not isolated (min %d, max %d)",
				row.Scenario, row.MinMsgs, row.MaxMsgs)
		}
		if row.LeakedHostBytes != 0 || row.LeakedOffcodes != 0 {
			return fmt.Errorf("experiments: contention: %s leaked %d B / %d offcodes after teardown",
				row.Scenario, row.LeakedHostBytes, row.LeakedOffcodes)
		}
		if row.ReclaimedHostBytes <= 0 {
			return fmt.Errorf("experiments: contention: %s reclaimed nothing at teardown", row.Scenario)
		}
		if row.LiveDeviceBytes != 0 {
			return fmt.Errorf("experiments: contention: %s left %d B live on devices",
				row.Scenario, row.LiveDeviceBytes)
		}
	}
	return nil
}

// Render prints X8 in the evaluation's presentation style.
func (r *ContentionResults) Render() string {
	var b strings.Builder
	b.WriteString("X8 — Multi-app contention: admission, quotas, isolation, reclamation\n")
	fmt.Fprintf(&b, "  (2 NICs, %d B reservations, %v per cell, one worker Offcode per tenant)\n",
		x8ReserveBytes, r.Duration)
	b.WriteString("  Scenario                    apps  admit  reject  quota-denied  msgs/app  reclaimed(B)  leaked\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-26s %5d  %5d  %6d  %12d  %8d  %12d  %6d\n",
			row.Scenario, row.Apps, row.Admitted, row.Rejected, row.QuotaDenied,
			row.MinMsgs, row.ReclaimedHostBytes, row.LeakedHostBytes)
	}
	b.WriteString("  shape: oversubscribed cells reject tenants at admission, tight quotas deny the\n")
	b.WriteString("  pins, every admitted tenant delivers the identical message count, and closing\n")
	b.WriteString("  the sessions returns the pinned-memory ledger exactly to its baseline.\n")
	return b.String()
}
