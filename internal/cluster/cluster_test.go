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
	ep      *channel.Endpoint
	recv    uint64
	echo    bool
	stopErr error // what Stop returns
}

func (w *testWorker) Initialize(*core.Context) error { return nil }
func (w *testWorker) Start() error                   { return nil }
func (w *testWorker) Stop() error                    { return w.stopErr }

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
	// drive runs simulated time until every engine drains.
	drive func()
}

// newRig builds n hosts ("h0".."h<n-1>"), each with one XScale NIC
// ("h<i>-nic") and a runtime, on one shared engine, and opens a
// coordinator over them.
func newRig(t *testing.T, n int, cfg Config) *rig { return newRigOn(t, n, cfg, false) }

// newRigOn is newRig with one engine per host when perHost is set; drive
// then settles the coordinator's engine group.
func newRigOn(t testing.TB, n int, cfg Config, perHost bool) *rig {
	t.Helper()
	spec := testbed.Spec{Name: "cluster-test", EnginePerHost: perHost}
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
	r := &rig{sys: sys, coord: coord, instances: make(map[string][]*testWorker)}
	r.drive = func() { sys.Eng.RunAll() }
	if perHost {
		g, err := coord.EngineGroup()
		if err != nil {
			t.Fatal(err)
		}
		r.drive = g.Settle
	}
	return r
}

// stock registers a worker ODF + object + factory on the given hosts
// (nil = every host). Fresh instances are created per factory call and
// recorded in r.instances[bind].
func (r *rig) stock(t testing.TB, bind string, g guid.GUID, echo, hostOnly bool, hosts ...string) string {
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
func (r *rig) latest(t testing.TB, bind string) *testWorker {
	t.Helper()
	insts := r.instances[bind]
	if len(insts) == 0 {
		t.Fatalf("no instance of %s was ever created", bind)
	}
	return insts[len(insts)-1]
}

func commit(t testing.TB, r *rig, p *Plan) *Deployment {
	t.Helper()
	var dep *Deployment
	var derr error
	done := false
	p.Commit(func(d *Deployment, err error) { dep, derr, done = d, err, true })
	r.drive()
	if !done {
		t.Fatal("commit never completed")
	}
	if derr != nil {
		t.Fatalf("commit: %v", derr)
	}
	return dep
}

// bridgeOf returns the live bridge of the a↔b edge, in either order, or nil.
func bridgeOf(c *Coordinator, a, b string) *Bridge {
	for _, e := range c.edges {
		if (e.a == a && e.b == b) || (e.a == b && e.b == a) {
			return e.br
		}
	}
	return nil
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

	if len(dep.Bridges) != 1 {
		t.Fatalf("%d bridges materialized, want 1", len(dep.Bridges))
	}
	br := dep.Bridges[0]
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

// Bridges on one directed host pair share its serialization watermark,
// and the reverse direction keeps its own: two same-instant h0→h1
// payloads on two bridges arrive one wire time apart, while an h1→h0
// payload sent at the same instant queues behind neither. Under
// per-host engines h0 and h1 advance their own watermarks in the same
// conservative window.
func TestBridgesShareDirectedLinkWatermark(t *testing.T) {
	for _, perHost := range []bool{false, true} {
		t.Run(fmt.Sprintf("perHost=%v", perHost), func(t *testing.T) {
			link := Link{Latency: 100 * sim.Microsecond, BytesPerSec: 1e6}
			const size = 1000
			wire := sim.Time(float64(size) / link.BytesPerSec * float64(sim.Second))
			r := newRigOn(t, 2, Config{DefaultLink: link}, perHost)
			p := r.coord.Plan()
			for i, bind := range []string{"a0", "a1", "b0", "b1"} {
				host := "h0"
				if bind[0] == 'b' {
					host = "h1"
				}
				if err := p.AddRoot(r.stock(t, bind, guid.GUID(9951+i), false, false), PinTo(host)); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range [][2]string{{"a0", "b0"}, {"a1", "b1"}} {
				if err := p.Connect(e[0], e[1], Traffic{MsgsPerSec: 1}); err != nil {
					t.Fatal(err)
				}
			}
			commit(t, r, p)

			// Each arrival time is written only on its receiver's engine.
			h0, h1 := r.coord.byHost["h0"].hs.Eng, r.coord.byHost["h1"].hs.Eng
			var atA sim.Time
			var atB [2]sim.Time
			record := func(bind string, eng *sim.Engine, into *sim.Time) {
				r.latest(t, bind).ep.InstallCallHandler(func([]byte) { *into = eng.Now() })
			}
			record("a0", h0, &atA)
			record("b0", h1, &atB[0])
			record("b1", h1, &atB[1])
			a0, a1, b0 := r.latest(t, "a0").ep, r.latest(t, "a1").ep, r.latest(t, "b0").ep
			payload := make([]byte, size)
			at := max(h0.Now(), h1.Now()) + sim.Millisecond
			h0.At(at, func() {
				a0.Write(payload)
				a1.Write(payload)
			})
			h1.At(at, func() { b0.Write(payload) })
			if perHost {
				g, err := r.coord.EngineGroup()
				if err != nil {
					t.Fatal(err)
				}
				g.Run(at+10*sim.Millisecond, 2)
			} else {
				r.sys.Eng.RunAll()
			}

			if atA == 0 || atB[0] == 0 || atB[1] == 0 {
				t.Fatalf("arrivals a0=%v b0=%v b1=%v; want all three", atA, atB[0], atB[1])
			}
			first, second := min(atB[0], atB[1]), max(atB[0], atB[1])
			if gap := second - first; gap < wire || gap > wire+wire/10 {
				t.Fatalf("h0→h1 arrivals %v apart, want one wire time (%v)", gap, wire)
			}
			// Each direction found its own link free: the h1→h0 payload
			// and the first h0→h1 one arrive together.
			if d := atA - first; d <= -wire/2 || d >= wire/2 {
				t.Fatalf("h1→h0 payload arrived %v after the first h0→h1 one: a direction queued behind the other", d)
			}
		})
	}
}

// Close keeps the typed errors of what it tears down: a shard whose Stop
// fails surfaces through errors.Is.
func TestCloseWrapsShardStopError(t *testing.T) {
	errStop := errors.New("stop failed")
	r := newRig(t, 2, Config{})
	p := r.coord.Plan()
	if err := p.AddRoot(r.stock(t, "w", 9961, false, false), PinTo("h1")); err != nil {
		t.Fatal(err)
	}
	commit(t, r, p)
	r.latest(t, "w").stopErr = errStop
	if err := r.coord.Close(); !errors.Is(err, errStop) {
		t.Fatalf("Close() = %v, want an error wrapping %v", err, errStop)
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
	hosts, err := r.coord.solveAssign(p.roots, p.edges)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := hosts["chatA"].name(), hosts["chatB"].name(); a != b {
		t.Fatalf("chatty shards split: chatA on %s, chatB on %s", a, b)
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
	if !strings.Contains(derr.Error(), "host h2") {
		t.Fatalf("commit error does not name the failing host h2: %v", derr)
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
	br := dep.Bridges[0]
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
	br2 := bridgeOf(r.coord, "front", "worker")
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
	if _, err := r.coord.solveAssign(p.roots, p.edges); err == nil || !strings.Contains(err.Error(), "no longer live") {
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

// A failed migration forgets the edges of the shards it lost: a later
// FailHost of the surviving endpoint's host must not solve or rebridge
// against a shard that no longer exists, and migrates the survivor.
func TestFailHostFailureForgetsLostShardEdges(t *testing.T) {
	r := newRig(t, 3, Config{})
	keep := r.stock(t, "keep", 9931, false, false)
	// "lost" has its behaviour factory only on h2, so its redeploy fails.
	lost := r.stock(t, "lost", 9932, false, false, "h2")
	for _, hs := range r.sys.RuntimeHosts() {
		if hs.Spec.Name != "h2" {
			hs.Depot.PutFile(lost, []byte(`<offcode>
  <package><bindname>lost</bindname><GUID>9932</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`))
		}
	}
	p := r.coord.Plan()
	if err := p.AddRoot(keep, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(lost, PinTo("h2")); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("keep", "lost", Traffic{MsgsPerSec: 1}); err != nil {
		t.Fatal(err)
	}
	commit(t, r, p)

	var ferr error
	r.coord.FailHost("h2", func(_ *Migration, err error) { ferr = err })
	r.sys.Eng.RunAll()
	if ferr == nil {
		t.Fatal("migration of the unstockable shard succeeded")
	}
	var rec *Migration
	r.coord.FailHost("h0", func(m *Migration, err error) { rec, ferr = m, err })
	r.sys.Eng.RunAll()
	if ferr != nil {
		t.Fatalf("second migration: %v", ferr)
	}
	if len(rec.Moved) != 1 || rec.Moved[0].Bind != "keep" || r.coord.HostOf("keep") != "h1" {
		t.Fatalf("moved %+v, keep on %q; want keep on h1", rec.Moved, r.coord.HostOf("keep"))
	}
}
