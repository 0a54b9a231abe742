package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hydra/internal/channel"
	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/objfile"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// testWorker is a NIC-resident shard: it counts deliveries and optionally
// echoes them back (feeding the bridge's reverse direction). Its received
// count rides checkpoints across migrations.
type testWorker struct {
	ep   *channel.Endpoint
	recv uint64
	echo bool
}

func (w *testWorker) Initialize(*core.Context) error { return nil }
func (w *testWorker) Start() error                   { return nil }
func (w *testWorker) Stop() error                    { return nil }

func (w *testWorker) ChannelConnected(ep *channel.Endpoint) {
	w.ep = ep
	ep.InstallCallHandler(func(data []byte) {
		w.recv++
		if w.echo {
			w.ep.Write(data)
		}
	})
}

func (w *testWorker) Checkpoint() []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, w.recv)
	return out
}

func (w *testWorker) Restore(state []byte) error {
	if len(state) != 8 {
		return fmt.Errorf("bad checkpoint of %d bytes", len(state))
	}
	w.recv = binary.LittleEndian.Uint64(state)
	return nil
}

// rig is a small multi-host cluster world.
type rig struct {
	sys   *testbed.System
	coord *Coordinator
	// instances records every behaviour the factories created, per bind, in
	// creation order — so migration tests can tell a restored re-instance
	// from the original.
	instances map[string][]*testWorker
}

// newRig builds n hosts ("h0".."h<n-1>"), each with one XScale NIC
// ("h<i>-nic") and a runtime, and opens a coordinator over them.
func newRig(t *testing.T, n int, cfg Config) *rig {
	t.Helper()
	spec := testbed.Spec{Name: "cluster-test"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d", i)
		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
			Name:    name,
			Devices: []device.Config{device.XScaleNIC(name + "-nic")},
			Runtime: &core.Config{},
		})
	}
	sys, err := testbed.New(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sys: sys, coord: coord, instances: make(map[string][]*testWorker)}
}

// stock registers a worker ODF + object + factory on the given hosts
// (nil = every host). Fresh instances are created per factory call and
// recorded in r.instances[bind].
func (r *rig) stock(t *testing.T, bind string, g guid.GUID, echo, hostOnly bool, hosts ...string) string {
	t.Helper()
	targets := `<device-class id="0x0001"><name>Network Device</name></device-class><host-fallback>true</host-fallback>`
	if hostOnly {
		targets = `<host-fallback>true</host-fallback>`
	}
	path := "/shards/" + bind + ".odf"
	doc := fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <targets>%s</targets>
</offcode>`, bind, g, targets)
	want := func(name string) bool {
		if len(hosts) == 0 {
			return true
		}
		for _, h := range hosts {
			if h == name {
				return true
			}
		}
		return false
	}
	for _, hs := range r.sys.RuntimeHosts() {
		if !want(hs.Spec.Name) {
			continue
		}
		hs.Depot.PutFile(path, []byte(doc))
		if err := hs.Depot.RegisterObject(objfile.Synthesize(bind, g, 4<<10,
			[]string{"hydra.Heap.Alloc", "hydra.Channel.Read"})); err != nil {
			t.Fatal(err)
		}
		if err := hs.Depot.RegisterFactory(g, func() any {
			w := &testWorker{echo: echo}
			r.instances[bind] = append(r.instances[bind], w)
			return w
		}); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// latest returns the most recently created instance of bind.
func (r *rig) latest(t *testing.T, bind string) *testWorker {
	t.Helper()
	insts := r.instances[bind]
	if len(insts) == 0 {
		t.Fatalf("no instance of %s was ever created", bind)
	}
	return insts[len(insts)-1]
}

func commit(t *testing.T, r *rig, p *Plan) *Deployment {
	t.Helper()
	var dep *Deployment
	var derr error
	done := false
	p.Commit(func(d *Deployment, err error) { dep, derr, done = d, err, true })
	r.sys.Eng.RunAll()
	if !done {
		t.Fatal("commit never completed")
	}
	if derr != nil {
		t.Fatalf("commit: %v", derr)
	}
	return dep
}

func TestCommitSpreadsShardsAndCloseRestoresLedgers(t *testing.T) {
	r := newRig(t, 2, Config{})
	type baseline struct{ live int64 }
	base := map[string]baseline{}
	for _, hs := range r.sys.RuntimeHosts() {
		base[hs.Spec.Name] = baseline{live: hs.Machine.LiveBytes()}
	}

	p := r.coord.Plan()
	for i := 0; i < 4; i++ {
		bind := fmt.Sprintf("w%d", i)
		path := r.stock(t, bind, guid.GUID(9300+i), false, false)
		if err := p.AddRoot(path); err != nil {
			t.Fatal(err)
		}
	}
	dep := commit(t, r, p)

	perHost := map[string]int{}
	for i := 0; i < 4; i++ {
		bind := fmt.Sprintf("w%d", i)
		host := r.coord.HostOf(bind)
		if host == "" {
			t.Fatalf("%s unplaced", bind)
		}
		perHost[host]++
		if dep.Handles[bind] == nil {
			t.Fatalf("no handle for %s", bind)
		}
	}
	if perHost["h0"] != 2 || perHost["h1"] != 2 {
		t.Fatalf("auto-balance split %v, want 2/2", perHost)
	}

	if err := r.coord.Close(); err != nil {
		t.Fatal(err)
	}
	for _, hs := range r.sys.RuntimeHosts() {
		if got, want := hs.Machine.LiveBytes(), base[hs.Spec.Name].live; got != want {
			t.Fatalf("%s LiveBytes = %d after Close, want %d", hs.Spec.Name, got, want)
		}
		if got := hs.Devices[0].MemLive(); got != 0 {
			t.Fatalf("%s device MemLive = %d after Close", hs.Spec.Name, got)
		}
	}
}

func TestBridgeRelaysAcrossHostsWithLinkLatency(t *testing.T) {
	link := Link{Latency: 1 * sim.Millisecond, BytesPerSec: 125e6}
	r := newRig(t, 2, Config{DefaultLink: link})
	pa := r.stock(t, "echoA", 9401, true, false)
	pb := r.stock(t, "sinkB", 9402, false, false)

	p := r.coord.Plan()
	if err := p.AddRoot(pa, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(pb, PinTo("h1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("echoA", "sinkB", Traffic{BytesPerSec: 1e6, MsgsPerSec: 100}); err != nil {
		t.Fatal(err)
	}
	dep := commit(t, r, p)

	br := dep.Bridges[EdgeKey("echoA", "sinkB")]
	if br == nil {
		t.Fatal("no bridge materialized")
	}
	if !br.Cross() {
		t.Fatal("pinned-apart endpoints did not cross hosts")
	}
	// Drive shard A: it echoes every delivery back on its endpoint, which
	// the bridge relays to B across the link.
	sent := r.sys.Eng.Now()
	if err := br.legs[0].end.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	r.sys.Eng.RunAll()

	a, b := r.latest(t, "echoA"), r.latest(t, "sinkB")
	if a.recv != 1 || b.recv != 1 {
		t.Fatalf("recv A=%d B=%d, want 1/1", a.recv, b.recv)
	}
	aToB, bToA := br.Relayed()
	if aToB != 1 || bToA != 0 {
		t.Fatalf("relayed = %d/%d, want 1/0", aToB, bToA)
	}
	if elapsed := r.sys.Eng.Now() - sent; elapsed < link.Latency {
		t.Fatalf("end-to-end took %v, below the %v link latency", elapsed, link.Latency)
	}
	st := br.Stats()
	if st.Delivered < 2 { // one delivery per leg
		t.Fatalf("bridge stats Delivered = %d, want ≥ 2", st.Delivered)
	}
	// Both forwarders exist.
	if br.legs[0].fwd == nil || br.legs[1].fwd == nil {
		t.Fatal("cross bridge missing forwarders")
	}
}

func TestSolverColocatesChattyShardsUnderOpenCapacity(t *testing.T) {
	r := newRig(t, 2, Config{HostCapacity: 8})
	pa := r.stock(t, "chatA", 9501, false, false)
	pb := r.stock(t, "chatB", 9502, false, false)
	p := r.coord.Plan()
	if err := p.AddRoot(pa); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(pb); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("chatA", "chatB", Traffic{BytesPerSec: 10e6, MsgsPerSec: 1000}); err != nil {
		t.Fatal(err)
	}
	pre, err := solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Assignments[0].Host != pre.Assignments[1].Host {
		t.Fatalf("chatty shards split: %+v", pre.Assignments)
	}
	if pre.Cost != 0 {
		t.Fatalf("co-located cost = %v, want 0", pre.Cost)
	}
	if pre.Edges[0].Cross {
		t.Fatal("edge previewed as crossing")
	}
}

// Regression: a mid-commit host failure must unwind the hosts already
// committed, leaving EVERY host's LiveBytes and MemLive ledgers at their
// pre-plan values — the cluster-scope mirror of the PR-4 single-host
// rollback guarantee.
func TestCommitRollbackOnMidCommitHostFailure(t *testing.T) {
	r := newRig(t, 3, Config{})
	// w0/w1 deploy everywhere; the shard pinned to h2 has no behaviour
	// factory there, so h2's sub-transaction fails after h0 and h1 have
	// already committed theirs.
	p0 := r.stock(t, "ok0", 9601, false, false)
	p1 := r.stock(t, "ok1", 9602, false, false)
	poison := "/shards/poison.odf"
	for _, hs := range r.sys.RuntimeHosts() {
		hs.Depot.PutFile(poison, []byte(`<offcode>
  <package><bindname>poison</bindname><GUID>9666</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`))
	}

	type ledger struct {
		live int64
		dev  int
		offs int
	}
	snap := func() map[string]ledger {
		out := map[string]ledger{}
		for _, hs := range r.sys.RuntimeHosts() {
			offs := 0
			for _, name := range hs.Runtime.Offcodes() {
				if h, err := hs.Runtime.GetOffcode(name); err == nil && !h.Pseudo() {
					offs++
				}
			}
			out[hs.Spec.Name] = ledger{
				live: hs.Machine.LiveBytes(),
				dev:  hs.Devices[0].MemLive(),
				offs: offs,
			}
		}
		return out
	}
	before := snap()

	p := r.coord.Plan()
	if err := p.AddRoot(p0, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(p1, PinTo("h1")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(poison, PinTo("h2")); err != nil {
		t.Fatal(err)
	}

	var dep *Deployment
	var derr error
	p.Commit(func(d *Deployment, err error) { dep, derr = d, err })
	r.sys.Eng.RunAll()
	if derr == nil {
		t.Fatal("commit succeeded despite the poisoned host")
	}
	if !strings.Contains(derr.Error(), "factory") {
		t.Fatalf("unexpected commit error: %v", derr)
	}
	if dep.FailedHost != "h2" {
		t.Fatalf("FailedHost = %q, want h2", dep.FailedHost)
	}
	if len(dep.Handles) != 0 {
		t.Fatalf("failed commit left handles: %v", dep.Handles)
	}

	after := snap()
	for host, want := range before {
		got := after[host]
		if got != want {
			t.Fatalf("host %s ledger after rollback = %+v, want %+v", host, got, want)
		}
	}
	for _, bind := range []string{"ok0", "ok1", "poison"} {
		if h := r.coord.HostOf(bind); h != "" {
			t.Fatalf("%s still placed on %s after rollback", bind, h)
		}
	}
	// The coordinator stays usable: the same roots commit fine once the
	// poison is gone.
	for _, hs := range r.sys.RuntimeHosts() {
		if err := hs.Depot.RegisterFactory(9666, func() any {
			w := &testWorker{}
			r.instances["poison"] = append(r.instances["poison"], w)
			return w
		}); err != nil {
			t.Fatal(err)
		}
	}
	p2 := r.coord.Plan()
	for _, path := range []string{p0, p1, poison} {
		if err := p2.AddRoot(path); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, r, p2)
}

func TestFailHostMigratesCheckpointedShardsAcrossHosts(t *testing.T) {
	r := newRig(t, 2, Config{})
	pf := r.stock(t, "front", 9701, true, true)
	pw := r.stock(t, "worker", 9702, false, false)

	p := r.coord.Plan()
	if err := p.AddRoot(pf, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(pw, PinTo("h1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("front", "worker", Traffic{BytesPerSec: 1e6, MsgsPerSec: 100}); err != nil {
		t.Fatal(err)
	}
	dep := commit(t, r, p)
	br := dep.Bridges[EdgeKey("front", "worker")]
	if !br.Cross() {
		t.Fatal("bridge not cross-host")
	}

	// Feed the worker three messages through the bridge.
	for i := 0; i < 3; i++ {
		if err := br.legs[1].end.Write([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	r.sys.Eng.RunAll()
	w1 := r.latest(t, "worker")
	if w1.recv != 3 {
		t.Fatalf("worker received %d before failover, want 3", w1.recv)
	}
	h1 := r.sys.Host("h1")

	var rec *Migration
	var ferr error
	r.coord.FailHost("h1", func(m *Migration, err error) { rec, ferr = m, err })
	r.sys.Eng.RunAll()
	if ferr != nil {
		t.Fatal(ferr)
	}
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if got := r.coord.HostOf("worker"); got != "h0" {
		t.Fatalf("worker migrated to %q, want h0", got)
	}
	if len(rec.Moved) != 1 || rec.Moved[0] != (MovedRoot{Bind: "worker", From: "h1", To: "h0"}) {
		t.Fatalf("Moved = %+v", rec.Moved)
	}
	if len(rec.Checkpointed) != 1 || rec.Checkpointed[0] != "worker" {
		t.Fatalf("Checkpointed = %v", rec.Checkpointed)
	}
	if rec.Finished < rec.Started {
		t.Fatalf("migration time negative: %+v", rec)
	}

	// A fresh instance was created on h0 and restored to the checkpoint.
	w2 := r.latest(t, "worker")
	if w2 == w1 {
		t.Fatal("worker was not re-instantiated")
	}
	if w2.recv != 3 {
		t.Fatalf("restored count = %d, want 3", w2.recv)
	}

	// The dead host's simulation ledgers are clean.
	if got := h1.Devices[0].MemLive(); got != 0 {
		t.Fatalf("dead host device MemLive = %d", got)
	}

	// The rebuilt bridge is now co-located and still delivers.
	br2 := r.coord.bridges[EdgeKey("front", "worker")]
	if br2 == nil {
		t.Fatal("bridge not rebuilt")
	}
	if br2.Cross() {
		t.Fatal("rebuilt bridge still crosses hosts")
	}
	if err := br2.legs[1].end.Write([]byte("m")); err != nil {
		t.Fatal(err)
	}
	r.sys.Eng.RunAll()
	if w2.recv != 4 {
		t.Fatalf("post-migration delivery count = %d, want 4", w2.recv)
	}
}

func TestAddRootRejectsDuplicatesAndDeadPins(t *testing.T) {
	r := newRig(t, 2, Config{})
	path := r.stock(t, "dup", 9801, false, false)
	p := r.coord.Plan()
	if err := p.AddRoot(path); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(path); !errors.Is(err, core.ErrDuplicateBind) {
		t.Fatalf("duplicate AddRoot err = %v", err)
	}
	if err := p.AddRoot(path, PinTo("nope")); err == nil {
		t.Fatal("unknown pin accepted")
	}
	commit(t, r, p)
	p2 := r.coord.Plan()
	if err := p2.AddRoot(path); !errors.Is(err, core.ErrDuplicateBind) {
		t.Fatalf("re-deploying a placed shard err = %v", err)
	}
}

// Review regressions: a pin whose host died between AddRoot and the solve
// must error, not silently re-pin to the first live host.
func TestSolveRejectsPinToHostThatDiedAfterAddRoot(t *testing.T) {
	r := newRig(t, 2, Config{})
	path := r.stock(t, "pinned", 9901, false, false)
	p := r.coord.Plan()
	if err := p.AddRoot(path, PinTo("h1")); err != nil {
		t.Fatal(err)
	}
	r.coord.FailHost("h1", func(*Migration, error) {})
	r.sys.Eng.RunAll()
	if _, err := solve(p); err == nil || !strings.Contains(err.Error(), "no longer live") {
		t.Fatalf("Solve err = %v, want pinned-host-dead error", err)
	}
}

// Review regression: a FailHost whose redeploy fails on a destination host
// must unwind any shards it already re-committed elsewhere — nothing may
// survive as running-but-untracked — and the coordinator must stay usable.
func TestFailHostRedeployFailureUnwindsPartialMigration(t *testing.T) {
	r := newRig(t, 3, Config{})
	// Two shards on h2; "lost" has its behaviour factory ONLY on h2 (the
	// survivors carry just the manifest), so after h2 dies its redeploy
	// fails wherever it lands, while "saved" redeploys fine first.
	saved := r.stock(t, "saved", 9921, false, false)
	lost := r.stock(t, "lost", 9922, false, false, "h2")
	for _, hs := range r.sys.RuntimeHosts() {
		if hs.Spec.Name == "h2" {
			continue
		}
		hs.Depot.PutFile(lost, []byte(`<offcode>
  <package><bindname>lost</bindname><GUID>9922</GUID></package>
  <targets><device-class id="0x0001"><name>Network Device</name></device-class><host-fallback>true</host-fallback></targets>
</offcode>`))
	}
	p := r.coord.Plan()
	if err := p.AddRoot(saved, PinTo("h2")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(lost, PinTo("h2")); err != nil {
		t.Fatal(err)
	}
	commit(t, r, p)

	liveBefore := map[string]int64{}
	for _, hs := range r.sys.RuntimeHosts() {
		liveBefore[hs.Spec.Name] = hs.Machine.LiveBytes()
	}
	var rec *Migration
	var ferr error
	r.coord.FailHost("h2", func(m *Migration, err error) { rec, ferr = m, err })
	r.sys.Eng.RunAll()
	if ferr == nil || rec.Err == nil {
		t.Fatalf("migration succeeded despite the unstockable shard: %v / %+v", ferr, rec)
	}
	for _, bind := range []string{"saved", "lost"} {
		if h := r.coord.HostOf(bind); h != "" {
			t.Fatalf("%s still tracked on %s after failed migration", bind, h)
		}
	}
	for _, hs := range r.sys.RuntimeHosts() {
		if hs.Spec.Name == "h2" {
			continue // the dead host's ledger settled at session close
		}
		if got := hs.Machine.LiveBytes(); got != liveBefore[hs.Spec.Name] {
			t.Fatalf("%s LiveBytes = %d after unwind, want %d", hs.Spec.Name, got, liveBefore[hs.Spec.Name])
		}
		offs := 0
		for _, name := range hs.Runtime.Offcodes() {
			if h, err := hs.Runtime.GetOffcode(name); err == nil && !h.Pseudo() {
				offs++
			}
		}
		if offs != 0 {
			t.Fatalf("%s still runs %d offcodes after unwind", hs.Spec.Name, offs)
		}
	}
	// The coordinator is not wedged: a fresh plan commits on the survivors.
	p2 := r.coord.Plan()
	if err := p2.AddRoot(saved); err != nil {
		t.Fatal(err)
	}
	commit(t, r, p2)
	if h := r.coord.HostOf("saved"); h == "" || h == "h2" {
		t.Fatalf("post-unwind redeploy landed on %q", h)
	}
}

// solve assigns every root and previews the deployment without touching
// hardware or committing the plan.
func solve(p *Plan) (*Preview, error) {
	asg, err := p.solveAssign()
	if err != nil {
		return nil, err
	}
	return p.preview(asg)
}
