package tivopc

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/guid"
	"hydra/internal/objfile"
	"hydra/internal/sim"
)

// The contended scenario: the offloaded Video Server streams from its own
// application session while a second tenant — a host-placed worker in the
// BackgroundAppName session — burns server CPU and holds pinned memory on
// the same runtime. Because the stream is paced by the NIC's hardware
// timer and the tenants are isolated sessions, the client-visible jitter
// stays at the offloaded server's device-timer level, and closing the
// background session returns every byte it pinned.

// GUIDBackgroundWorker names the background tenant's Offcode.
const GUIDBackgroundWorker guid.GUID = 9021

// BackgroundPinBytes is the host memory the background session pins.
const BackgroundPinBytes = 256 << 10

// bgWorkerOffcode is a host-placed compute loop: every period it spends
// busyCycles of server CPU, modeling an unrelated co-resident application.
type bgWorkerOffcode struct {
	tb         *Testbed
	period     sim.Time
	busyCycles uint64
	stopAt     sim.Time

	ctx    *core.Context
	ticker *sim.Ticker
	// Iterations counts completed work periods.
	Iterations int
}

func (w *bgWorkerOffcode) Initialize(ctx *core.Context) error {
	w.ctx = ctx
	if ctx.Device != nil {
		return fmt.Errorf("tivo.BackgroundWorker: expected host placement, got %s", ctx.Device.Name())
	}
	return nil
}

func (w *bgWorkerOffcode) Start() error {
	task := w.ctx.Host.NewTask("bg-worker")
	w.ticker = w.tb.Eng.Tick(w.period, 0, func() {
		if w.tb.Eng.Now() >= w.stopAt {
			w.ticker.Stop()
			return
		}
		task.Compute(w.busyCycles, func() { w.Iterations++ })
	})
	return nil
}

func (w *bgWorkerOffcode) Stop() error {
	if w.ticker != nil {
		w.ticker.Stop()
	}
	return nil
}

const backgroundODF = `<offcode>
  <package><bindname>tivo.BackgroundWorker</bindname><GUID>9021</GUID></package>
  <targets>
    <device-class><name>Compute Accelerator</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`

// BackgroundHarness is the running background tenant.
type BackgroundHarness struct {
	App    *core.App
	Worker *bgWorkerOffcode

	deploy deployOutcome
}

// DeployErr reports how the tenant's commit settled. The commit runs over
// simulated time, so check it only after the engine has run.
func (h *BackgroundHarness) DeployErr() error { return h.deploy.Err() }

// StartBackgroundApp deploys the competing tenant into the server's
// background session: it pins BackgroundPinBytes of host memory against
// the session's memory quota and commits a one-root plan for the worker,
// which lands on the host (no Compute Accelerator exists in the testbed).
func StartBackgroundApp(tb *Testbed, stopAt sim.Time) (*BackgroundHarness, error) {
	d := tb.ServerDepot
	d.PutFile("/tivo/tivo.BackgroundWorker.odf", []byte(backgroundODF))
	obj := objfile.Synthesize("tivo.BackgroundWorker", GUIDBackgroundWorker, 2<<10,
		[]string{"hydra.Heap.Alloc"})
	if err := d.RegisterObject(obj); err != nil {
		return nil, err
	}
	worker := &bgWorkerOffcode{
		tb:         tb,
		period:     10 * sim.Millisecond,
		busyCycles: 400_000,
		stopAt:     stopAt,
	}
	if err := d.RegisterFactory(GUIDBackgroundWorker, func() any { return worker }); err != nil {
		return nil, err
	}
	h := &BackgroundHarness{App: tb.BackgroundApp, Worker: worker}
	if _, _, err := tb.BackgroundApp.PinMemory(BackgroundPinBytes); err != nil {
		return nil, err
	}
	plan := tb.BackgroundApp.Plan()
	if err := plan.AddRoot("/tivo/tivo.BackgroundWorker.odf"); err != nil {
		return nil, err
	}
	// The commit's instantiate/Initialize phases run on the virtual clock;
	// the harness records the outcome for DeployErr once it settles.
	plan.Commit(h.deploy.arm())
	return h, nil
}

// ContendedRun is the measured outcome of the contended scenario.
type ContendedRun struct {
	// Stream is the offloaded server's measurement with the tenant present.
	Stream *ServerRun
	// BackgroundIterations counts the tenant's completed work periods.
	BackgroundIterations int
	// ReclaimedBytes is the host memory returned when the background
	// session closed (pinned buffers plus its Offcode's OOB ring).
	ReclaimedBytes int64
}

// RunContendedScenario streams the offloaded server for duration while the
// background tenant competes on the server host, then closes the
// background session and reports what its teardown reclaimed.
func RunContendedScenario(seed int64, duration sim.Time) (*ContendedRun, error) {
	tb := NewTestbed(seed, duration)
	run := &ContendedRun{Stream: &ServerRun{Kind: OffloadedServer}}

	client, err := StartClient(tb, IdleClient)
	if err != nil {
		return nil, err
	}
	bg, err := StartBackgroundApp(tb, duration)
	if err != nil {
		return nil, err
	}
	cpu := tb.Server.SampleUtilization(SampleInterval)
	srv, err := StartServer(tb, OffloadedServer, duration)
	if err != nil {
		return nil, err
	}

	tb.Eng.Run(duration)

	if err := bg.DeployErr(); err != nil {
		return nil, fmt.Errorf("tivopc: background deploy: %w", err)
	}
	if err := srv.DeployErr(); err != nil {
		return nil, fmt.Errorf("tivopc: server deploy: %w", err)
	}
	run.Stream.Sent = srv.TotalSent()
	run.Stream.JitterGaps = client.Arrivals.Gaps()
	if len(cpu.Samples) > 1 {
		run.Stream.CPUSamples = cpu.Samples[1:]
	}
	run.BackgroundIterations = bg.Worker.Iterations
	if run.BackgroundIterations == 0 {
		return nil, fmt.Errorf("tivopc: background tenant never ran")
	}
	if len(run.Stream.JitterGaps) < 10 {
		return nil, fmt.Errorf("tivopc: contended stream produced only %d arrivals",
			len(run.Stream.JitterGaps))
	}

	before := tb.Server.LiveBytes()
	if err := bg.App.Close(); err != nil {
		return nil, fmt.Errorf("tivopc: background close: %w", err)
	}
	run.ReclaimedBytes = before - tb.Server.LiveBytes()
	return run, nil
}
