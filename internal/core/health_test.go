package core

import (
	"fmt"
	"reflect"
	"testing"

	"hydra/internal/bus"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/hostos"
	"hydra/internal/objfile"
	"hydra/internal/sim"
)

// --- lifecycle teardown ---

func TestDeployedHandlesInstantiationOrder(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stock(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))
	deploy(t, r, "/offcodes/net.Socket.odf")
	handles := r.rt.deployedHandles()
	var names []string
	for _, h := range handles {
		names = append(names, h.BindName)
	}
	// Imports instantiate before importers, so reversing this slice stops
	// the importer first — the property failover relies on.
	if len(names) != 2 || names[len(names)-1] != "net.Socket" {
		t.Fatalf("instantiation order = %v, want net.Socket last", names)
	}
}

func TestStopOffcodeForgetsRoot(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	h := deploy(t, r, "/offcodes/net.Checksum.odf")
	if len(r.rt.roots) != 1 {
		t.Fatalf("roots = %v", r.rt.roots)
	}
	if err := r.rt.StopOffcode(h); err != nil {
		t.Fatal(err)
	}
	if len(r.rt.roots) != 0 {
		t.Fatal("stopped root still recorded; failover would resurrect it")
	}
}

// --- health monitor + migration ---

// ckptOffcode is a fakeOffcode that carries one byte of state across
// migrations via the Checkpointer contract.
type ckptOffcode struct {
	fakeOffcode
	state []byte
}

func (c *ckptOffcode) Checkpoint() []byte {
	*c.log = append(*c.log, "checkpoint:"+c.name)
	return append([]byte(nil), c.state...)
}

func (c *ckptOffcode) Restore(b []byte) error {
	*c.log = append(*c.log, "restore:"+c.name)
	c.state = append([]byte(nil), b...)
	return nil
}

// twoNICRig builds a host with a primary and standby NIC and stocks one
// checkpointing Offcode targeting the Network Device class.
type twoNICRig struct {
	eng        *sim.Engine
	nic0, nic1 *device.Device
	rt         *Runtime
	log        []string
	last       *ckptOffcode // most recently instantiated behaviour
}

func newTwoNICRig(t *testing.T, seed int64) *twoNICRig {
	t.Helper()
	r := &twoNICRig{eng: sim.NewEngine(seed)}
	host := hostos.New(r.eng, "host", hostos.PentiumIV())
	b := bus.New(r.eng, bus.DefaultConfig())
	r.nic0 = device.New(r.eng, host, b, device.XScaleNIC("nic0"))
	r.nic1 = device.New(r.eng, host, b, device.XScaleNIC("nic1"))
	dep := depot.New()
	r.rt = New(r.eng, host, b, dep, Config{})
	r.rt.RegisterDevice(r.nic0)
	r.rt.RegisterDevice(r.nic1)

	dep.PutFile("/offcodes/net.Filter.odf", []byte(`<offcode>
  <package><bindname>net.Filter</bindname><GUID>404</GUID></package>
  <targets>
    <device-class><name>Network Device</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`))
	obj := objfile.Synthesize("net.Filter", guid.GUID(404), 512,
		[]string{"hydra.Heap.Alloc", "hydra.Channel.Write"})
	if err := dep.RegisterObject(obj); err != nil {
		t.Fatal(err)
	}
	if err := dep.RegisterFactory(guid.GUID(404), func() any {
		r.last = &ckptOffcode{fakeOffcode: fakeOffcode{name: "net.Filter", log: &r.log}}
		return r.last
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *twoNICRig) deployFilter(t *testing.T) *Handle {
	t.Helper()
	var h *Handle
	var derr error
	planDeploy(r.rt, "/offcodes/net.Filter.odf", func(handle *Handle, err error) { h, derr = handle, err })
	r.eng.Run(sim.Second)
	if derr != nil {
		t.Fatal(derr)
	}
	if h == nil {
		t.Fatal("deployment never completed")
	}
	return h
}

func TestMonitorDetectsCrashAndMigrates(t *testing.T) {
	r := newTwoNICRig(t, 11)
	h := r.deployFilter(t)
	if h.Device() != r.nic0 {
		t.Fatalf("initial placement = %v, want nic0", h.Device())
	}
	r.last.state = []byte{42}

	r.rt.StartMonitor()
	crashAt := 50 * sim.Millisecond
	r.eng.At(crashAt, r.nic0.Crash)
	r.eng.Run(sim.Second)

	recs := r.rt.Recoveries()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(recs))
	}
	recovered := recs[0]
	if recovered.Err != nil {
		t.Fatal(recovered.Err)
	}
	if recovered.Device != "nic0" || !recovered.Complete() {
		t.Fatalf("recovery = %+v", recovered)
	}
	detect := recovered.DetectedAt - crashAt
	if detect <= 0 || detect > heartbeatTimeout+2*Heartbeat {
		t.Fatalf("detection latency = %v (timeout %v)", detect, heartbeatTimeout)
	}
	if recovered.MigrationTime() <= 0 {
		t.Fatalf("migration time = %v", recovered.MigrationTime())
	}

	// The Offcode moved to the standby NIC, as a fresh instance with the
	// checkpointed state restored before Start.
	h2, err := r.rt.GetOffcode("net.Filter")
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h {
		t.Fatal("failover reused the dead handle")
	}
	if h2.Device() != r.nic1 {
		t.Fatalf("migrated to %v, want nic1", h2.Device())
	}
	if h2.state != StateStarted {
		t.Fatalf("migrated state = %v", h2.state)
	}
	if got := h2.Behaviour().(*ckptOffcode).state; len(got) != 1 || got[0] != 42 {
		t.Fatalf("state after migration = %v, want [42]", got)
	}
	want := []string{
		"init:net.Filter", "start:net.Filter",
		"checkpoint:net.Filter", "stop:net.Filter",
		"init:net.Filter", "restore:net.Filter", "start:net.Filter",
	}
	if !reflect.DeepEqual(r.log, want) {
		t.Fatalf("lifecycle = %v, want %v", r.log, want)
	}
}

func TestFailoverStopsImportersFirst(t *testing.T) {
	r := newRig(t, Config{})
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.stock(t, "net.Socket", 100, "Network Device", importRef("net.Checksum", 101, "Pull"))
	deploy(t, r, "/offcodes/net.Socket.odf")
	r.rt.StartMonitor()
	r.eng.At(20*sim.Millisecond, r.nic.Crash)
	r.eng.Run(sim.Second)

	rec := r.rt.Recoveries()
	if len(rec) != 1 || rec[0].Err != nil {
		t.Fatalf("recoveries = %+v", rec)
	}
	// Reverse dependency order: the importer (deployed last) stops first.
	if !reflect.DeepEqual(rec[0].Stopped, []string{"net.Socket", "net.Checksum"}) {
		t.Fatalf("stop order = %v", rec[0].Stopped)
	}
	// Both fell back to the host: no surviving Network Device (disk0 is
	// storage class), host-fallback is allowed.
	for _, bind := range []string{"net.Socket", "net.Checksum"} {
		h, err := r.rt.GetOffcode(bind)
		if err != nil {
			t.Fatal(err)
		}
		if h.Device() != nil {
			t.Fatalf("%s on %v, want host fallback", bind, h.Device())
		}
	}
}

func TestRejoinedDeviceUsedByNextFailover(t *testing.T) {
	r := newTwoNICRig(t, 13)
	r.deployFilter(t)
	r.rt.StartMonitor()
	// nic0 crashes and later restarts; then nic1 crashes — the second
	// failover must land back on the restored nic0.
	r.eng.At(50*sim.Millisecond, r.nic0.Crash)
	r.eng.At(200*sim.Millisecond, r.nic0.Restore)
	r.eng.At(400*sim.Millisecond, r.nic1.Crash)
	r.eng.Run(sim.Second)

	recs := r.rt.Recoveries()
	if len(recs) != 2 {
		t.Fatalf("recoveries = %d, want 2", len(recs))
	}
	h, err := r.rt.GetOffcode("net.Filter")
	if err != nil {
		t.Fatal(err)
	}
	if h.Device() != r.nic0 {
		t.Fatalf("after second failover on %v, want rejoined nic0", h.Device())
	}
}

func TestFailoverDeterministic(t *testing.T) {
	run := func() []sim.Time {
		r := newTwoNICRig(t, 77)
		r.deployFilter(t)
		r.rt.StartMonitor()
		r.eng.At(50*sim.Millisecond, r.nic0.Crash)
		r.eng.Run(sim.Second)
		var out []sim.Time
		for _, rec := range r.rt.Recoveries() {
			out = append(out, rec.DetectedAt, rec.MigrationStart, rec.MigrationEnd)
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("fixed-seed recovery differs across runs: %v vs %v", a, b)
	}
}

// A device that dies while a migration is loading onto it drops the
// deploy continuation; the monitor must notice the stalled migration,
// abort it, and recover over the remaining targets with the pending
// checkpoint carried forward.
func TestStalledMigrationAbortedAndRetried(t *testing.T) {
	r := newTwoNICRig(t, 21)
	r.deployFilter(t)
	r.last.state = []byte{42}
	r.rt.StartMonitor()

	// Crash nic0; after detection the failover redeploys onto nic1. Kill
	// nic1 just after each failover for nic0 starts, so the in-flight load
	// stalls. Detection happens on a monitor tick (a Heartbeat multiple); the
	// exact tick depends on probe timing, so arm a watcher that crashes
	// nic1 the moment the first migration begins.
	r.eng.At(50*sim.Millisecond, r.nic0.Crash)
	var watch func()
	watch = func() {
		if len(r.rt.Recoveries()) > 0 && r.nic1.Healthy() {
			r.nic1.Crash()
			return
		}
		r.eng.Schedule(100*sim.Microsecond, watch)
	}
	r.eng.Schedule(0, watch)
	r.eng.Run(2 * sim.Second)

	recs := r.rt.Recoveries()
	if len(recs) != 2 {
		t.Fatalf("recoveries = %d, want aborted + retried", len(recs))
	}
	if recs[0].Err == nil || !recs[0].Complete() {
		t.Fatalf("stalled migration not aborted: %+v", recs[0])
	}
	if recs[1].Err != nil {
		t.Fatal(recs[1].Err)
	}
	h, err := r.rt.GetOffcode("net.Filter")
	if err != nil {
		t.Fatal(err)
	}
	if h.Device() != nil {
		t.Fatalf("both NICs dead; offcode on %v, want host fallback", h.Device())
	}
	if h.state != StateStarted {
		t.Fatalf("state = %v", h.state)
	}
	// The checkpoint survived the aborted migration.
	if got := h.Behaviour().(*ckptOffcode).state; len(got) != 1 || got[0] != 42 {
		t.Fatalf("state after retried migration = %v, want [42]", got)
	}
}

// Regression: a migration that legitimately completes at virtual time zero
// must still report Complete. The old code used MigrationEnd != 0 as the
// in-flight sentinel, so a t=0 recovery looked permanently in flight.
func TestRecoveryCompleteAtTimeZero(t *testing.T) {
	r := newRig(t, Config{})
	if r.eng.Now() != 0 {
		t.Fatal("engine not at time zero")
	}
	// No Offcodes are deployed, so the failover settles synchronously
	// within the same (zeroth) instant.
	rec := r.rt.failover(r.nic, 0)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if !rec.Complete() {
		t.Fatalf("t=0 migration reported in flight: %+v", rec)
	}
	if rec.MigrationEnd != 0 || rec.MigrationTime() != 0 {
		t.Fatalf("migration end %v, time %v; want both zero", rec.MigrationEnd, rec.MigrationTime())
	}
	if r.rt.migrating {
		t.Fatal("runtime still thinks a migration is in flight")
	}
}

// An in-flight recovery reports incomplete until the finisher runs, and an
// aborted one reports complete with its error recorded.
func TestRecoveryAbortMarksComplete(t *testing.T) {
	r := newRig(t, Config{})
	rec := &Recovery{MigrationStart: 5}
	r.rt.activeRec = rec
	r.rt.migrating = true
	if rec.Complete() {
		t.Fatal("fresh recovery already complete")
	}
	r.rt.abortMigration(fmt.Errorf("test abort"))
	if !rec.Complete() || rec.Err == nil {
		t.Fatalf("aborted recovery: complete=%v err=%v", rec.Complete(), rec.Err)
	}
}
