package cluster

import (
	"fmt"
	"testing"

	"hydra/internal/guid"
	"hydra/internal/sim"
)

// relayPair is a two-host cell with shard a0 pinned to h0 and b0 to h1,
// joined by one cross-host bridge.
type relayPair struct {
	r      *rig
	br     *Bridge
	a0, b0 *testWorker
	group  *sim.Group // nil on a shared engine
}

func newRelayPair(tb testing.TB, cfg Config, perHost bool) *relayPair {
	tb.Helper()
	r := newRigOn(tb, 2, cfg, perHost)
	p := r.coord.Plan()
	for i, bind := range []string{"a0", "b0"} {
		host := fmt.Sprintf("h%d", i)
		if err := p.AddRoot(r.stock(tb, bind, guid.GUID(9961+i), false, false), PinTo(host)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := p.Connect("a0", "b0", Traffic{MsgsPerSec: 1}); err != nil {
		tb.Fatal(err)
	}
	commit(tb, r, p)
	rp := &relayPair{r: r, br: bridgeOf(r.coord, "a0", "b0"), a0: r.latest(tb, "a0"), b0: r.latest(tb, "b0")}
	if !rp.br.Cross() {
		tb.Fatal("pinned-apart shards share a host")
	}
	if perHost {
		g, err := r.coord.EngineGroup()
		if err != nil {
			tb.Fatal(err)
		}
		rp.group = g
	}
	return rp
}

// now is the latest clock in the cell.
func (rp *relayPair) now() sim.Time {
	return max(rp.r.coord.byHost["h0"].hs.Eng.Now(), rp.r.coord.byHost["h1"].hs.Eng.Now())
}

// run advances the cell until every event up to until has fired: serial
// conservative windows on per-host engines, the shared engine otherwise.
func (rp *relayPair) run(until sim.Time) {
	if rp.group != nil {
		rp.group.Run(until, 1)
		return
	}
	rp.r.sys.Eng.Run(until)
}

// round writes one payload each way between the shards and runs until
// both have crossed the link, so both backends' relay pools stay level.
func (rp *relayPair) round(payload []byte) {
	rp.a0.ep.Write(payload)
	rp.b0.ep.Write(payload)
	rp.run(rp.now() + sim.Millisecond)
}

// A warm cross-host relay allocates nothing: each message rides a pooled
// relay record whose steps are bound once, and every layer under it
// (channels, device segments and DMA steps, host tasks, the engine group)
// recycles its own records.
func TestBridgeRelaySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, perHost := range []bool{false, true} {
		t.Run(fmt.Sprintf("perHost=%v", perHost), func(t *testing.T) {
			rp := newRelayPair(t, Config{}, perHost)
			payload := make([]byte, 256)
			for i := 0; i < 64; i++ {
				rp.round(payload)
			}
			allocs := testing.AllocsPerRun(100, func() { rp.round(payload) })
			// AllocsPerRun adds one warm-up call to its 100.
			if aToB, bToA := rp.br.Relayed(); aToB != 165 || bToA != 165 || rp.br.Dropped() != 0 {
				t.Fatalf("relayed %d/%d, dropped %d; want 165/165, 0", aToB, bToA, rp.br.Dropped())
			}
			if allocs != 0 {
				t.Fatalf("%.2f allocations per relay round trip, want 0", allocs)
			}
		})
	}
}

// A relay that is on the wire when failover tears its bridge down is
// dropped on arrival: Dropped counts it and its record returns to the
// pool of the host whose engine ran that last step. The cell runs in
// conservative windows on both sides of the failover.
func TestBridgeRelayDroppedAfterFailoverReturnsRecord(t *testing.T) {
	link := Link{Latency: 5 * sim.Millisecond, BytesPerSec: 125e6}
	// Capacity 1 leaves b0 no room on h0, so its migration fails at once
	// and the bridge is gone for good.
	rp := newRelayPair(t, Config{DefaultLink: link, HostCapacity: 1}, true)
	h1 := rp.r.coord.byHost["h1"]
	start := rp.now()
	rp.a0.ep.Write(make([]byte, 256))
	rp.run(start + link.Latency/2)
	if aToB, _ := rp.br.Relayed(); aToB != 0 || rp.br.Dropped() != 0 || rp.b0.recv != 0 {
		t.Fatal("fixture: the payload must still be on the wire at failover")
	}
	pooled := len(h1.relayFree)

	var ferr error
	failed := false
	rp.r.coord.FailHost("h1", func(_ *Migration, err error) { ferr, failed = err, true })
	if !failed || ferr == nil {
		t.Fatalf("FailHost = (%v, %v), want an immediate failed migration", failed, ferr)
	}
	if rp.br.legs[1] != nil {
		t.Fatal("failover kept the bridge's far leg")
	}
	rp.run(start + 4*link.Latency)

	if got := rp.br.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if aToB, _ := rp.br.Relayed(); aToB != 0 || rp.b0.recv != 0 {
		t.Fatalf("relayed %d, b0 received %d after its bridge was torn down", aToB, rp.b0.recv)
	}
	if got := len(h1.relayFree); got != pooled+1 {
		t.Fatalf("h1 pools %d relay records, want %d: the dropped record was not returned", got, pooled+1)
	}
}

// BenchmarkBridgeRelay reports the host cost of one steady-state
// cross-host round trip (one relay each way) on per-host engines.
func BenchmarkBridgeRelay(b *testing.B) {
	rp := newRelayPair(b, Config{}, true)
	payload := make([]byte, 256)
	for i := 0; i < 64; i++ {
		rp.round(payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.round(payload)
	}
}
