package experiments

import (
	"fmt"
	"strings"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
)

// X11: device-initiated host syscalls — rate × batch depth × dispatch mode
// against blocking per-call dispatch. Each variant is one host carrying one
// programmable device whose build-time syscall plane (testbed
// HostSpec.Syscalls) issues host-clock syscalls open-loop at a fixed rate:
// the blocking variant holds one ModeSync call in flight with per-call
// delivery, the batched variants keep a credit window of ModeAsync calls
// flowing through gather-DMA'd request/completion batches. The measured
// surfaces are host CPU cycles per executed syscall (the overhead batching
// exists to amortize) and the issue→completion latency distribution (the
// price coalescing pays). The cell runs on per-host engines under a
// conservative window: one worker and many workers must agree bit for bit,
// traces included. A separate swap cell drives syscalls through the full
// App.OpenSyscalls plane and hot-swaps the issuing Offcode mid-run,
// requiring every in-flight call to complete exactly once on the
// replacement (host side effects are counted, not just completions).

// X11Window is one rate cell's measurement window of simulated time.
const X11Window = 25 * sim.Millisecond

// X11Rates is the offered syscall-rate ladder, per device.
var X11Rates = []int{50_000, 200_000, 400_000}

// X11TopRate is the ladder's top rate, where the headline batched-vs-
// blocking cycles ratio is taken.
func X11TopRate() int { return X11Rates[len(X11Rates)-1] }

// x11Variant is one dispatch-policy column of the grid.
type x11Variant struct {
	name string
	mode syscall.Mode
	prof syscall.Profile
}

// x11Variants returns the dispatch policies: blocking per-call sync
// dispatch, and two batched async shapes. The batched coalesce windows sit
// well above the per-call service time (context-switch dominated, ~3 µs)
// so completions aggregate instead of trickling one per flush; one
// dispatcher worker keeps consecutive executions on one task, avoiding a
// context switch per call.
func x11Variants() []x11Variant {
	return []x11Variant{
		{name: "blocking", mode: syscall.ModeSync, prof: syscall.BlockingProfile()},
		{name: "batch8", mode: syscall.ModeAsync, prof: syscall.Profile{
			Batch: 8, Coalesce: 50 * sim.Microsecond, Credits: 64, Workers: 1}},
		{name: "batch32", mode: syscall.ModeAsync, prof: syscall.Profile{
			Batch: 32, Coalesce: 200 * sim.Microsecond, Credits: 256, Workers: 1,
			RingEntries: 1024}},
	}
}

// X11Row is one (rate, dispatch policy) cell's outcome.
type X11Row struct {
	Variant string
	Mode    string
	RateHz  int
	Batch   int
	// Issued/Executed/Completed count syscalls through the three stages;
	// Denied counts issue attempts rejected by the in-flight credit limit
	// (the blocking variant saturates by denial, staying open-loop).
	Issued, Executed, Completed, Denied uint64
	// CyclesPerSyscall is host CPU cycles per executed syscall.
	CyclesPerSyscall float64
	// MeanLatencyUS / P99LatencyUS summarize issue→completion latency.
	MeanLatencyUS float64
	P99LatencyUS  float64
	// Interrupts counts host interrupts the syscall channel raised.
	Interrupts uint64
}

// RunX11Cell runs every dispatch variant at one offered rate, each on its
// own host engine, under a conservative window with the given worker
// count. Rows come back in variant order and are bit-identical for any
// workers value. A non-nil trace attaches the recorder; the returned
// tracer's merged stream (CatSyscall issue/dispatch/complete records
// included) is bit-identical for any workers value too.
func RunX11Cell(seed int64, rateHz, workers int, trace *obs.Config) ([]X11Row, *obs.Tracer, error) {
	variants := x11Variants()
	spec := testbed.Spec{Name: "x11-syscalls", EnginePerHost: true, Trace: trace}
	for _, v := range variants {
		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
			Name:     "h-" + v.name,
			Devices:  []device.Config{device.SmartDisk("d-" + v.name)},
			Syscalls: &testbed.SyscallSpec{Profile: v.prof},
		})
	}
	sys, err := testbed.New(seed, spec)
	if err != nil {
		return nil, nil, err
	}
	engines := make([]*sim.Engine, 0, len(variants))
	for _, hs := range sys.Hosts() {
		engines = append(engines, hs.Eng)
	}
	group, err := sim.NewGroup(engines, 500*sim.Microsecond)
	if err != nil {
		return nil, nil, err
	}

	// Open-loop pacers: one per host, at fixed absolute ticks. The issuer's
	// credit limit sheds load when the variant can't keep up (ModeSync with
	// one credit = classic blocking dispatch).
	period := sim.Time(int64(sim.Second) / int64(rateHz))
	for i, v := range variants {
		hs := sys.Hosts()[i]
		iss := hs.Syscalls[0].Issuer
		mode := v.mode
		pace(hs.Eng, 0, X11Window, period, func(sim.Time, bool) {
			_ = iss.Issue(syscall.OpClock, mode, nil, func(*syscall.Completion) {})
		})
	}
	// Run past the window so the last batches coalesce out and complete.
	group.Run(X11Window+2*sim.Millisecond, workers)
	group.Settle()

	rows := make([]X11Row, 0, len(variants))
	for i, v := range variants {
		hs := sys.Hosts()[i]
		plane := hs.Syscalls[0]
		st := plane.Issuer.Stats()
		st.Add(plane.Service.Stats())
		batch := v.prof.Batch
		if batch < 1 {
			batch = 1
		}
		row := X11Row{
			Variant: v.name, Mode: v.mode.String(), RateHz: rateHz, Batch: batch,
			Issued: st.Issued, Executed: st.Executed, Completed: st.Completed,
			Denied:     st.CreditDenied,
			Interrupts: plane.Channel.Stats().Interrupts,
		}
		if st.Executed > 0 {
			m := hs.Machine
			row.CyclesPerSyscall = m.BusyTime().Float64Seconds() * m.Config().CPUFreqHz / float64(st.Executed)
		}
		if lats := plane.Issuer.Latencies(); len(lats) > 0 {
			us := make([]float64, len(lats))
			var sum float64
			for j, l := range lats {
				us[j] = float64(l) / float64(sim.Microsecond)
				sum += us[j]
			}
			row.MeanLatencyUS = sum / float64(len(us))
			row.P99LatencyUS = stats.Quantile(us, 0.99)
		}
		rows = append(rows, row)
	}
	return rows, sys.Tracer, nil
}

// --- the mid-run hot-swap leg ---

// X11Swap is the exactly-once outcome of hot-swapping the issuing Offcode
// under open syscall traffic.
type X11Swap struct {
	// Issued counts syscalls the two instances issued; Completed counts
	// completions their continuations received. Equal after the drain.
	Issued, Completed uint64
	// HostLogLines is the side-effect ledger — it must equal Issued
	// (exactly once).
	HostLogLines uint64
	// Reissued counts in-flight calls the replacement re-sent after its
	// restore; Deduped counts the host's cache/in-flight hits answering
	// them; Orphaned counts duplicate completions the device absorbed.
	Reissued, Deduped, Orphaned uint64
	// InFlightAtSwap is the pending-table depth the checkpoint carried.
	InFlightAtSwap int
	// SwapWindowMS is the Replace quiesce→resume span.
	SwapWindowMS float64
}

const (
	x11SwapBind   = "x11.SysClient"
	x11SwapV1Path = "/x11/sysclient.v1.odf"
	x11SwapV2Path = "/x11/sysclient.v2.odf"
)

// x11SwapShared is the cross-instance observation point: the pacer always
// drives the newest live issuer, and completions from both instances land
// in one counter.
type x11SwapShared struct {
	prof      syscall.Profile
	issuer    *syscall.Issuer
	completed uint64
	restored  int // pending entries carried into the replacement
}

// x11SysClient is the syscall-issuing Offcode. Its checkpoint is the
// issuer's pending table, so a hot-swap replays in-flight syscalls on the
// replacement and the host's dedup keeps execution exactly-once.
type x11SysClient struct {
	nopOffcode
	shared *x11SwapShared
	iss    *syscall.Issuer
}

func (o *x11SysClient) Initialize(ctx *core.Context) error {
	o.iss = syscall.NewIssuer(ctx.Device, o.shared.prof, nil)
	o.iss.SetDefaultHandler(func(*syscall.Completion) { o.shared.completed++ })
	return nil
}

func (o *x11SysClient) ChannelConnected(ep *channel.Endpoint) {
	o.iss.Attach(ep)
	o.shared.issuer = o.iss
}

func (o *x11SysClient) Checkpoint() []byte { return o.iss.Checkpoint() }

// Restore applies the predecessor's pending table before the channel
// reattaches; a checkpoint the issuer rejects fails the deployment, so
// App.Replace rolls back.
func (o *x11SysClient) Restore(b []byte) error {
	if err := o.iss.Restore(b); err != nil {
		return fmt.Errorf("x11: restore: %w", err)
	}
	o.shared.restored = o.iss.InFlight()
	return nil
}

// stockX11Client stocks the syscall client's ODF at path on the depot.
func stockX11Client(dep *depot.Depot, path string, g guid.GUID, shared *x11SwapShared) error {
	return stockOffcode(dep, path, x11SwapBind, g, 8<<10,
		[]string{"hydra.Heap.Alloc", "hydra.Channel.Write"},
		func() any { return &x11SysClient{shared: shared} })
}

// RunX11Swap deploys the syscall client through the session surface
// (App.OpenSyscalls), drives log syscalls open-loop, and hot-swaps the
// client at mid-run with calls in flight. The host's log-line ledger is
// the exactly-once witness: a replayed call that re-executed would
// overcount it.
func RunX11Swap(seed int64) (*X11Swap, error) {
	const (
		rate     = 100_000
		duration = 10 * sim.Millisecond
		swapAt   = 5 * sim.Millisecond
	)
	spec := testbed.Spec{
		Name: "x11-swap",
		Hosts: []testbed.HostSpec{{
			Name:    "h0",
			Devices: []device.Config{device.XScaleNIC("h0-nic")},
			Runtime: &core.Config{},
		}},
	}
	sys, err := testbed.New(seed, spec)
	if err != nil {
		return nil, err
	}
	hs := sys.Host("h0")
	shared := &x11SwapShared{prof: syscall.Profile{
		Batch: 8, Coalesce: 50 * sim.Microsecond, Credits: 64, Workers: 1}}
	for i, path := range []string{x11SwapV1Path, x11SwapV2Path} {
		if err := stockX11Client(hs.Depot, path, guid.GUID(9980+i), shared); err != nil {
			return nil, err
		}
	}

	app := hs.Runtime.DefaultApp()
	handle, err := deployRoot(app, sys.Eng, x11SwapV1Path, x11SwapBind)
	if err != nil {
		return nil, fmt.Errorf("x11: %w", err)
	}
	plane, err := app.OpenSyscalls(handle, shared.prof)
	if err != nil {
		return nil, fmt.Errorf("x11: open syscalls: %w", err)
	}

	// Open-loop log syscalls against whichever instance is live. Issues
	// that land inside the quiesce window fail (the endpoint is paused
	// mid-swap) and are simply shed, like any overloaded open-loop source.
	var issued uint64
	pace(sys.Eng, sys.Eng.Now(), duration, sim.Time(int64(sim.Second)/int64(rate)), func(sim.Time, bool) {
		if iss := shared.issuer; iss != nil {
			if iss.Issue(syscall.OpLog, syscall.ModeAsync, []any{"x11"},
				func(*syscall.Completion) { shared.completed++ }) == nil {
				issued++
			}
		}
	})

	var res *core.MutationResult
	var swapErr error
	sys.Eng.At(sys.Eng.Now()+swapAt, func() {
		app.Replace(x11SwapBind, x11SwapV2Path, func(m *core.MutationResult, err error) {
			res, swapErr = m, err
		})
	})
	sys.Eng.RunAll()
	if swapErr != nil {
		return nil, fmt.Errorf("x11: swap: %w", swapErr)
	}
	if res == nil {
		return nil, fmt.Errorf("x11: swap never settled")
	}

	st := shared.issuer.Stats()
	svc := plane.Service.Stats()
	return &X11Swap{
		Issued:         issued,
		Completed:      shared.completed,
		HostLogLines:   hs.Runtime.VFS().LogLines(),
		Reissued:       st.Reissued,
		Deduped:        svc.Deduped,
		Orphaned:       st.Orphaned,
		InFlightAtSwap: shared.restored,
		SwapWindowMS:   float64(res.Finished-res.Started) / float64(sim.Millisecond),
	}, nil
}

// X11Results holds the grid, the swap leg, and the headline ratio.
type X11Results struct {
	Window sim.Time
	// Rows is rate-major, variant-minor.
	Rows []X11Row
	Swap X11Swap
	// TopRateSpeedup is blocking cycles/syscall over deep-batch
	// cycles/syscall at the top rate — the amortization headline.
	TopRateSpeedup float64
}

// RunSyscalls runs the X11 grid, every rate with window bodies on one
// worker, then the hot-swap leg.
func RunSyscalls(seed int64) (*X11Results, error) {
	out := &X11Results{Window: X11Window}
	for _, rate := range X11Rates {
		rows, _, err := RunX11Cell(seed, rate, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: x11 @%d: %w", rate, err)
		}
		out.Rows = append(out.Rows, rows...)
	}
	swap, err := RunX11Swap(seed)
	if err != nil {
		return nil, err
	}
	out.Swap = *swap
	var blocking, deep *X11Row
	for i := range out.Rows {
		r := &out.Rows[i]
		if r.RateHz != X11TopRate() {
			continue
		}
		switch r.Variant {
		case "blocking":
			blocking = r
		case "batch32":
			deep = r
		}
	}
	if blocking != nil && deep != nil && deep.CyclesPerSyscall > 0 {
		out.TopRateSpeedup = blocking.CyclesPerSyscall / deep.CyclesPerSyscall
	}
	return out, nil
}

// CheckSyscallShape asserts the qualitative X11 outcome: every executed
// call completes, batching cuts cycles/syscall ≥5× at the top rate while
// costing visible latency, and the hot-swap leg is exactly-once.
func CheckSyscallShape(r *X11Results) error {
	for _, row := range r.Rows {
		if row.Issued == 0 {
			return fmt.Errorf("experiments: x11: %s @%d issued nothing", row.Variant, row.RateHz)
		}
		if row.Completed != row.Issued {
			return fmt.Errorf("experiments: x11: %s @%d completed %d of %d issued",
				row.Variant, row.RateHz, row.Completed, row.Issued)
		}
		if row.Executed != row.Issued {
			return fmt.Errorf("experiments: x11: %s @%d executed %d of %d issued",
				row.Variant, row.RateHz, row.Executed, row.Issued)
		}
		if row.CyclesPerSyscall <= 0 || row.P99LatencyUS <= 0 {
			return fmt.Errorf("experiments: x11: %s @%d has empty measurements: %+v",
				row.Variant, row.RateHz, row)
		}
	}
	if r.TopRateSpeedup < 5 {
		return fmt.Errorf("experiments: x11: batched dispatch saved only %.2f× cycles/syscall at %d/s (want ≥5×)",
			r.TopRateSpeedup, X11TopRate())
	}
	s := &r.Swap
	if s.Issued == 0 || s.Completed != s.Issued {
		return fmt.Errorf("experiments: x11 swap: completed %d of %d issued", s.Completed, s.Issued)
	}
	if s.HostLogLines != s.Issued {
		return fmt.Errorf("experiments: x11 swap: host executed %d log lines for %d issues (not exactly-once)",
			s.HostLogLines, s.Issued)
	}
	if s.InFlightAtSwap == 0 || s.Reissued == 0 {
		return fmt.Errorf("experiments: x11 swap: nothing was in flight at the swap (%d pending, %d reissued)",
			s.InFlightAtSwap, s.Reissued)
	}
	if s.SwapWindowMS <= 0 {
		return fmt.Errorf("experiments: x11 swap: window %.3f ms", s.SwapWindowMS)
	}
	return nil
}

// Render prints X11 in the evaluation's presentation style.
func (r *X11Results) Render() string {
	var b strings.Builder
	b.WriteString("X11 — Device-initiated host syscalls: batched reverse-RPC vs blocking per-call dispatch\n")
	fmt.Fprintf(&b, "  (host-clock syscalls, open loop, %v per cell; per-host engines)\n", r.Window)
	b.WriteString("  Variant    mode   rate/s   issued  executed  denied  cycles/syscall  lat mean(µs)  lat p99(µs)    irqs\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s  %-5s  %6d  %7d  %8d  %6d  %14.0f  %12.2f  %11.2f  %6d\n",
			row.Variant, row.Mode, row.RateHz, row.Issued, row.Executed, row.Denied,
			row.CyclesPerSyscall, row.MeanLatencyUS, row.P99LatencyUS, row.Interrupts)
	}
	fmt.Fprintf(&b, "  headline: batch-32 dispatch uses %.1f× fewer host cycles/syscall than blocking per-call at %d/s\n",
		r.TopRateSpeedup, X11TopRate())
	s := &r.Swap
	fmt.Fprintf(&b, "  hot-swap: %d in flight at App.Replace (%.3f ms window); %d reissued, %d orphaned;\n",
		s.InFlightAtSwap, s.SwapWindowMS, s.Reissued, s.Orphaned)
	fmt.Fprintf(&b, "  %d issued → %d completed, host log ledger %d — exactly once\n",
		s.Issued, s.Completed, s.HostLogLines)
	b.WriteString("  shape: batching amortizes the per-syscall interrupt + context-switch cost; the\n")
	b.WriteString("  coalescing window buys it with completion latency (see p99).\n")
	return b.String()
}
