package experiments

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/objfile"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// The scaffolding every cell shares: no-op Offcode lifecycles, depot
// stocking, commit/settle plumbing, the shared clock base of per-host
// engine groups, and the serial-vs-parallel determinism double run.

// nopOffcode is the empty Offcode lifecycle; experiment Offcodes embed it
// and add only the hooks they need.
type nopOffcode struct{}

func (nopOffcode) Initialize(*core.Context) error { return nil }
func (nopOffcode) Start() error                   { return nil }
func (nopOffcode) Stop() error                    { return nil }

// ODF <targets> bodies: any network device, or the host.
const (
	nicTargets  = `<device-class id="0x0001"><name>Network Device</name></device-class>`
	hostTargets = `<host-fallback>true</host-fallback>`
)

// nicImports is the symbol set a synthesized shard image links against.
var nicImports = []string{"hydra.Heap.Alloc", "hydra.Channel.Read"}

// stockOffcode publishes one Offcode in dep: its ODF at path, and factory
// as its constructor. A device-resident Offcode (size > 0) also gets a
// synthesized object image of size bytes linking imports; a host
// Offcode (size 0) needs none.
func stockOffcode(dep *depot.Depot, path, bind string, g guid.GUID, size int, imports []string, factory func() any) error {
	targets := hostTargets
	if size > 0 {
		targets = nicTargets
	}
	dep.PutFile(path, []byte(fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <targets>%s</targets>
</offcode>`, bind, g, targets)))
	if size > 0 {
		if err := dep.RegisterObject(objfile.Synthesize(bind, g, size, imports)); err != nil {
			return err
		}
	}
	return dep.RegisterFactory(g, factory)
}

// recvCounter is a delivery count that rides checkpoints across
// migrations and hot-swaps.
type recvCounter struct{ recv uint64 }

func (c *recvCounter) Checkpoint() []byte { return binary.LittleEndian.AppendUint64(nil, c.recv) }

func (c *recvCounter) Restore(state []byte) error {
	if len(state) != 8 {
		return fmt.Errorf("experiments: bad counter checkpoint of %d bytes", len(state))
	}
	c.recv = binary.LittleEndian.Uint64(state)
	return nil
}

// nicCluster adds hosts machines h0…h(n-1) to spec, each with one XScale
// NIC, a HYDRA runtime and (when sc is set) a syscall plane, builds it,
// and opens a cluster coordinator over every host.
func nicCluster(seed int64, spec testbed.Spec, hosts int, sc *testbed.SyscallSpec, cfg cluster.Config) (*testbed.System, *cluster.Coordinator, error) {
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%d", i)
		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
			Name:     name,
			Devices:  []device.Config{device.XScaleNIC(name + "-nic")},
			Runtime:  &core.Config{},
			Syscalls: sc,
		})
	}
	sys, err := testbed.New(seed, spec)
	if err != nil {
		return nil, nil, err
	}
	coord, err := cluster.New(sys, cfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, coord, nil
}

// settle starts a commit or mutation with begin, which must arrange for
// done to be called, drives simulated time with drive, and fails if done
// never ran.
func settle(what string, begin func(done func(error)), drive func()) error {
	var err error
	finished := false
	begin(func(e error) { err, finished = e, true })
	drive()
	if !finished {
		return fmt.Errorf("%s never settled", what)
	}
	return err
}

// commitPlan commits a cluster plan and drives simulated time until it
// settles.
func commitPlan(what string, plan *cluster.Plan, drive func()) error {
	return settle(what+": commit", func(done func(error)) {
		plan.Commit(func(_ *cluster.Deployment, err error) { done(err) })
	}, drive)
}

// deployRoot commits a one-root plan for the ODF at path on app, drives
// eng until it settles, and returns the handle of the root bound as bind.
func deployRoot(app *core.App, eng *sim.Engine, path, bind string) (*core.Handle, error) {
	plan := app.Plan()
	if err := plan.AddRoot(path); err != nil {
		return nil, err
	}
	var h *core.Handle
	err := settle("deploy "+bind, func(done func(error)) {
		plan.Commit(func(d *core.Deployment, err error) {
			h = d.Handles[bind]
			done(err)
		})
	}, func() { eng.RunAll() })
	return h, err
}

// mutateShards applies deltas to a live cluster deployment and drives
// simulated time until the mutation settles.
func mutateShards(what string, coord *cluster.Coordinator, deltas []cluster.ShardDelta, drive func()) (*cluster.ClusterMutation, error) {
	var res *cluster.ClusterMutation
	err := settle(what+": mutation", func(done func(error)) {
		coord.Mutate(deltas, func(m *cluster.ClusterMutation, err error) { res = m; done(err) })
	}, drive)
	return res, err
}

// latestClock is the furthest clock among engines: engines settle at
// different times, so a measured window starting there sees every host
// for its full length.
func latestClock(engines []*sim.Engine) sim.Time {
	var t sim.Time
	for _, e := range engines {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// pace calls tick at start, start+every, … up to (not including) end on
// eng, at fixed absolute instants; when eng's clock already passed start
// (a barrier operation overran the boundary) the first tick rounds up to
// the next instant on that grid.
func pace(eng *sim.Engine, start, end, every sim.Time, tick func(t sim.Time, last bool)) {
	first := start
	if now := eng.Now(); now > first {
		first += ((now - start + every - 1) / every) * every
	}
	var step func(t sim.Time)
	step = func(t sim.Time) {
		next := t + every
		tick(t, next >= end)
		if next < end {
			eng.At(next, func() { step(next) })
		}
	}
	if first < end {
		eng.At(first, func() { step(first) })
	}
}

// Twin is a result verified serial ≡ parallel: the cell ran on one worker,
// then on Workers, and both runs agreed exactly. SerialMS and ParallelMS
// are the two runs' wall clocks.
type Twin[T any] struct {
	Result               T
	Workers              int
	SerialMS, ParallelMS float64
}

// RunTwin runs cell on one worker and again on workers (values below 2
// mean max(2, GOMAXPROCS)), failing unless the two results are deeply
// equal — the determinism contract every windowed or pooled experiment
// carries.
func RunTwin[T any](what string, workers int, cell func(workers int) (T, error)) (*Twin[T], error) {
	if workers < 2 {
		workers = max(2, runtime.GOMAXPROCS(0))
	}
	t0 := time.Now()
	serial, err := cell(1)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s (serial): %w", what, err)
	}
	serialMS := float64(time.Since(t0).Microseconds()) / 1000
	t0 = time.Now()
	parallel, err := cell(workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s (%d workers): %w", what, workers, err)
	}
	parallelMS := float64(time.Since(t0).Microseconds()) / 1000
	if !reflect.DeepEqual(serial, parallel) {
		return nil, fmt.Errorf("experiments: %s determinism violated:\n  serial   %+v\n  %d workers %+v",
			what, serial, workers, parallel)
	}
	return &Twin[T]{Result: parallel, Workers: workers, SerialMS: serialMS, ParallelMS: parallelMS}, nil
}
