package cluster

import (
	"fmt"
	"strings"
	"testing"

	"hydra/internal/guid"
	"hydra/internal/objfile"
)

// stockOn registers a worker ODF under path with the given bind/GUID on
// one named host only — used to stage replacement versions for swaps.
func (r *rig) stockOn(t *testing.T, host, path, bind string, g guid.GUID) {
	t.Helper()
	for _, hs := range r.sys.RuntimeHosts() {
		if hs.Spec.Name != host {
			continue
		}
		hs.Depot.PutFile(path, []byte(fmt.Sprintf(`<offcode>
  <package><bindname>%s</bindname><GUID>%d</GUID></package>
  <targets><device-class id="0x0001"><name>Network Device</name></device-class><host-fallback>true</host-fallback></targets>
</offcode>`, bind, g)))
		if err := hs.Depot.RegisterObject(objfile.Synthesize(bind, g, 4<<10,
			[]string{"hydra.Heap.Alloc", "hydra.Channel.Read"})); err != nil {
			t.Fatal(err)
		}
		if err := hs.Depot.RegisterFactory(g, func() any {
			w := &testWorker{}
			r.instances[bind] = append(r.instances[bind], w)
			return w
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func mutate(t *testing.T, r *rig, deltas []ShardDelta) *ClusterMutation {
	t.Helper()
	var res *ClusterMutation
	var merr error
	done := false
	r.coord.Mutate(deltas, func(m *ClusterMutation, err error) { res, merr, done = m, err, true })
	r.sys.Eng.RunAll()
	if !done {
		t.Fatal("mutation never completed")
	}
	if merr != nil {
		t.Fatalf("mutate: %v", merr)
	}
	return res
}

// The incremental-re-solve contract: growing the shard set deploys ONLY on
// the host the new shard lands on. Every committed shard stays pinned in
// place and the other hosts' runtimes see no new deployment commit.
func TestMutateAddShardLeavesOtherHostsUntouched(t *testing.T) {
	r := newRig(t, 3, Config{HostCapacity: 8})
	p0 := r.stock(t, "w0", 9951, false, false)
	p1 := r.stock(t, "w1", 9952, false, false)
	p := r.coord.Plan()
	if err := p.AddRoot(p0, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(p1, PinTo("h1")); err != nil {
		t.Fatal(err)
	}
	commit(t, r, p)

	deploysBefore := map[string]uint64{}
	for _, hs := range r.sys.RuntimeHosts() {
		deploysBefore[hs.Spec.Name] = hs.Runtime.Deployments()
	}

	// The new shard's chatty edge to w0 pulls it onto h0 (capacity is open).
	p2 := r.stock(t, "w2", 9953, false, false)
	res := mutate(t, r, []ShardDelta{
		AddShard{Path: p2, Connect: []ShardEdge{{To: "w0", Traffic: Traffic{BytesPerSec: 10e6, MsgsPerSec: 1000}}}},
	})

	if res.Added["w2"] != "h0" {
		t.Fatalf("Added = %v, want w2 on h0 (edge pull)", res.Added)
	}
	// Committed shards did not move.
	if r.coord.HostOf("w0") != "h0" || r.coord.HostOf("w1") != "h1" {
		t.Fatalf("existing shards moved: w0=%s w1=%s", r.coord.HostOf("w0"), r.coord.HostOf("w1"))
	}
	// The proof, from the result and from the counters themselves.
	if len(res.RedeployedHosts) != 1 || res.RedeployedHosts[0] != "h0" {
		t.Fatalf("RedeployedHosts = %v, want [h0]", res.RedeployedHosts)
	}
	if len(res.UntouchedHosts) != 2 || res.UntouchedHosts[0] != "h1" || res.UntouchedHosts[1] != "h2" {
		t.Fatalf("UntouchedHosts = %v, want [h1 h2]", res.UntouchedHosts)
	}
	for _, host := range []string{"h1", "h2"} {
		if got := r.sys.Host(host).Runtime.Deployments(); got != deploysBefore[host] {
			t.Fatalf("%s deployment counter moved %d→%d during an unrelated add",
				host, deploysBefore[host], got)
		}
	}

	// The new edge materialized and delivers.
	br := r.coord.bridges[EdgeKey("w2", "w0")]
	if br == nil {
		t.Fatal("no bridge for the new edge")
	}
	if br.Cross() {
		t.Fatal("co-located edge bridged across hosts")
	}
	if err := br.legs[0].end.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	r.sys.Eng.RunAll()
	if got := r.latest(t, "w2").recv; got != 1 {
		t.Fatalf("new shard recv = %d, want 1", got)
	}
}

// Shrinking the shard set stops the shard, tears down its bridges and
// frees its placement — with zero deployment commits anywhere.
func TestMutateRemoveShardTearsDownBridges(t *testing.T) {
	r := newRig(t, 2, Config{HostCapacity: 8})
	p0 := r.stock(t, "keep", 9961, false, false)
	p1 := r.stock(t, "drop", 9962, false, false)
	p := r.coord.Plan()
	if err := p.AddRoot(p0, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRoot(p1, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("keep", "drop", Traffic{BytesPerSec: 1e6, MsgsPerSec: 100}); err != nil {
		t.Fatal(err)
	}
	commit(t, r, p)
	if r.coord.bridges[EdgeKey("keep", "drop")] == nil {
		t.Fatal("edge did not materialize")
	}

	res := mutate(t, r, []ShardDelta{RemoveShard{Bind: "drop"}})
	if len(res.Removed) != 1 || res.Removed[0] != "drop" {
		t.Fatalf("Removed = %v", res.Removed)
	}
	if len(res.RedeployedHosts) != 0 {
		t.Fatalf("a removal redeployed hosts: %v", res.RedeployedHosts)
	}
	if r.coord.HostOf("drop") != "" {
		t.Fatal("removed shard still placed")
	}
	if r.coord.bridges[EdgeKey("keep", "drop")] != nil {
		t.Fatal("removed shard's bridge survived")
	}
	if _, err := r.sys.Host("h0").Runtime.GetOffcode("drop"); err == nil {
		t.Fatal("removed shard still running")
	}
	// The bind and its edge slot are free again: re-adding works.
	res2 := mutate(t, r, []ShardDelta{
		AddShard{Path: p1, Pin: "h1", Connect: []ShardEdge{{To: "keep", Traffic: Traffic{MsgsPerSec: 10}}}},
	})
	if res2.Added["drop"] != "h1" {
		t.Fatalf("re-add = %v", res2.Added)
	}
	if br := r.coord.bridges[EdgeKey("keep", "drop")]; br == nil || !br.Cross() {
		t.Fatalf("re-added edge bridge = %+v", br)
	}
}

// SwapShard hot-swaps a live shard under bridge traffic: messages that
// land during the quiesce window are held and replayed to the
// replacement, the checkpointed count carries across, and NO host runs a
// deployment commit — a hot-swap is not a redeploy.
func TestMutateSwapShardHotSwapsUnderTraffic(t *testing.T) {
	r := newRig(t, 2, Config{HostCapacity: 8})
	pf := r.stock(t, "front", 9971, false, false)
	pw := r.stock(t, "worker", 9972, false, false)
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
	commit(t, r, p)
	br := r.coord.bridges[EdgeKey("front", "worker")]

	for i := 0; i < 3; i++ {
		if err := br.legs[1].end.Write([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	r.sys.Eng.RunAll()
	w1 := r.latest(t, "worker")
	if w1.recv != 3 {
		t.Fatalf("pre-swap recv = %d, want 3", w1.recv)
	}
	deploysBefore := map[string]uint64{}
	for _, hs := range r.sys.RuntimeHosts() {
		deploysBefore[hs.Spec.Name] = hs.Runtime.Deployments()
	}

	// Stage worker v2 on its host, then swap under traffic: the quiesce
	// starts at the same virtual instant, so these writes land inside the
	// swap window, are held at the paused proxy endpoint, and replay.
	r.stockOn(t, "h1", "/shards/worker.v2.odf", "worker", 9973)
	var res *ClusterMutation
	var merr error
	r.coord.Mutate([]ShardDelta{SwapShard{Bind: "worker", Path: "/shards/worker.v2.odf"}},
		func(m *ClusterMutation, err error) { res, merr = m, err })
	for i := 0; i < 4; i++ {
		if err := br.legs[1].end.Write([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	r.sys.Eng.RunAll()
	if merr != nil {
		t.Fatal(merr)
	}

	if len(res.Swaps) != 1 {
		t.Fatalf("Swaps = %+v", res.Swaps)
	}
	sw := res.Swaps[0]
	if sw.Bind != "worker" || sw.Host != "h1" {
		t.Fatalf("swap = %+v", sw)
	}
	if sw.Window <= 0 {
		t.Fatalf("swap window = %v, want > 0", sw.Window)
	}
	if sw.Replayed != 4 {
		t.Fatalf("Replayed = %d, want 4 (the swap-window writes)", sw.Replayed)
	}
	// A fresh instance took over exactly where the old one stopped: the
	// checkpoint restored 3, the replayed writes brought it to 7.
	w2 := r.latest(t, "worker")
	if w2 == w1 {
		t.Fatal("worker was not re-instantiated")
	}
	if w2.recv != 7 {
		t.Fatalf("post-swap recv = %d, want 7 (3 restored + 4 replayed)", w2.recv)
	}
	// The shard did not move and nothing redeployed — on ANY host.
	if r.coord.HostOf("worker") != "h1" {
		t.Fatalf("worker moved to %s", r.coord.HostOf("worker"))
	}
	if len(res.RedeployedHosts) != 0 {
		t.Fatalf("a hot-swap redeployed hosts: %v", res.RedeployedHosts)
	}
	for host, n := range deploysBefore {
		if got := r.sys.Host(host).Runtime.Deployments(); got != n {
			t.Fatalf("%s deployment counter moved %d→%d during a swap", host, n, got)
		}
	}
	// The bridge still delivers into the replacement.
	if err := br.legs[1].end.Write([]byte("m")); err != nil {
		t.Fatal(err)
	}
	r.sys.Eng.RunAll()
	if w2.recv != 8 {
		t.Fatalf("post-swap delivery = %d, want 8", w2.recv)
	}
}

// A failed delta unwinds itself: a poisoned add leaves no placement, no
// bridge and clean ledgers; a failed swap rolls back to the old shard,
// which keeps serving. Deltas before the failure stay applied.
func TestMutateFailedDeltaUnwindsAndKeepsServing(t *testing.T) {
	r := newRig(t, 2, Config{HostCapacity: 8})
	pw := r.stock(t, "svc", 9981, false, false)
	p := r.coord.Plan()
	if err := p.AddRoot(pw, PinTo("h0")); err != nil {
		t.Fatal(err)
	}
	commit(t, r, p)

	// Poisoned add: manifest everywhere, factory nowhere.
	poison := "/shards/poison.odf"
	for _, hs := range r.sys.RuntimeHosts() {
		hs.Depot.PutFile(poison, []byte(`<offcode>
  <package><bindname>poison</bindname><GUID>9666</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`))
	}
	okPath := r.stock(t, "ok", 9982, false, false)
	liveBefore := map[string]int64{}
	for _, hs := range r.sys.RuntimeHosts() {
		liveBefore[hs.Spec.Name] = hs.Machine.LiveBytes()
	}
	var res *ClusterMutation
	var merr error
	r.coord.Mutate([]ShardDelta{
		AddShard{Path: okPath, Pin: "h1"},
		AddShard{Path: poison, Connect: []ShardEdge{{To: "svc", Traffic: Traffic{MsgsPerSec: 1}}}},
	}, func(m *ClusterMutation, err error) { res, merr = m, err })
	r.sys.Eng.RunAll()
	if merr == nil || !strings.Contains(merr.Error(), "factory") {
		t.Fatalf("err = %v", merr)
	}
	if !res.RolledBack {
		t.Fatal("RolledBack not set")
	}
	// The earlier delta stays applied; the failed one left nothing behind.
	if r.coord.HostOf("ok") != "h1" {
		t.Fatalf("earlier delta unwound: ok on %q", r.coord.HostOf("ok"))
	}
	if r.coord.HostOf("poison") != "" {
		t.Fatal("failed add left a placement")
	}
	if r.coord.bridges[EdgeKey("poison", "svc")] != nil {
		t.Fatal("failed add left a bridge")
	}

	// A failed swap (replacement has no factory on the host) rolls back:
	// the old shard keeps its placement and keeps serving.
	for _, hs := range r.sys.RuntimeHosts() {
		if hs.Spec.Name != "h0" {
			continue
		}
		hs.Depot.PutFile("/shards/svc.v2.odf", []byte(`<offcode>
  <package><bindname>svc</bindname><GUID>9983</GUID></package>
  <targets><host-fallback>true</host-fallback></targets>
</offcode>`))
	}
	var serr error
	r.coord.Mutate([]ShardDelta{SwapShard{Bind: "svc", Path: "/shards/svc.v2.odf"}},
		func(m *ClusterMutation, err error) { serr = err })
	r.sys.Eng.RunAll()
	if serr == nil {
		t.Fatal("poisoned swap succeeded")
	}
	if r.coord.HostOf("svc") != "h0" {
		t.Fatalf("failed swap lost the placement: %q", r.coord.HostOf("svc"))
	}
	if _, err := r.sys.Host("h0").Runtime.GetOffcode("svc"); err != nil {
		t.Fatalf("old shard gone after failed swap: %v", err)
	}
	// The coordinator is not wedged.
	mutate(t, r, []ShardDelta{RemoveShard{Bind: "ok"}})
}
