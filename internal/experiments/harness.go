package experiments

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"hydra/internal/core"
	"hydra/internal/depot"
	"hydra/internal/guid"
	"hydra/internal/objfile"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// The scaffolding every cell shares: no-op Offcode lifecycles, depot
// stocking, settle plumbing, the variant grid, and the serial-vs-pool
// double run. The sharded cell is in shardcell.go.

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

// grid runs cell once per variant through testbed.Sweep on workers
// goroutines (0 = GOMAXPROCS, 1 = serial; one private engine per cell,
// results bit-identical for any workers value) and returns the results
// in variant order. Every variant runs at the one seed: the tables
// compare variants, not seeds, so every row must see the same world.
func grid[V, R any](what string, seed int64, workers int, variants []V, cell func(seed int64, v V) (R, error)) ([]R, error) {
	seeds := make([]int64, len(variants))
	for i := range seeds {
		seeds[i] = seed
	}
	rows, err := testbed.Sweep(testbed.SweepConfig{Seeds: seeds, Workers: workers},
		func(r testbed.Replica) (R, error) { return cell(r.Seed, variants[r.Index]) })
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", what, err)
	}
	return rows, nil
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
// equal. It times a pool against the serial loop (hydra-bench's jitter
// sweep); the tests check 1 ≡ N workers for every other cell.
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
		return nil, fmt.Errorf("experiments: %s determinism violated: serial vs %d workers differ at %s",
			what, workers, firstDiff("", reflect.ValueOf(serial), reflect.ValueOf(parallel)))
	}
	return &Twin[T]{Result: parallel, Workers: workers, SerialMS: serialMS, ParallelMS: parallelMS}, nil
}

// firstDiff walks a and b in field, index and sorted-key order, the way
// reflect.DeepEqual compares them, and describes the first difference as
// "path: a vs b", e.g. "Rows[2].P99LatUS: 1849.86 vs 1850.01". It
// returns "" when it finds none.
func firstDiff(path string, a, b reflect.Value) string {
	show := func(v reflect.Value) string {
		if !v.IsValid() {
			return "missing" // a map key only one side holds
		}
		return fmt.Sprint(v)
	}
	diff := func() string {
		return fmt.Sprintf("%s: %s vs %s", strings.TrimPrefix(path, "."), show(a), show(b))
	}
	if a.IsValid() != b.IsValid() {
		return diff()
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %v vs %v", strings.TrimPrefix(path, "."), a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return diff()
		}
		if a.IsNil() {
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return diff()
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("len(%s): %d vs %d", strings.TrimPrefix(path, "."), a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.IsNil() != b.IsNil() {
			return diff()
		}
		keys := a.MapKeys()
		for _, k := range b.MapKeys() {
			if !a.MapIndex(k).IsValid() {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			if d := firstDiff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), b.MapIndex(k)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Func:
		if a.IsNil() && b.IsNil() {
			return ""
		}
		return diff()
	}
	if !a.Equal(b) { // comparable kinds: ==, as DeepEqual uses
		return diff()
	}
	return ""
}
