package loadgen

import (
	"testing"

	"hydra/internal/flowtable"
	"hydra/internal/sim"
)

func cfg(seed int64) Config {
	return Config{
		Seed: seed, RateHz: 100_000, Tick: 100 * sim.Microsecond,
		Flows: 256, SizeBase: 40, SizeS: 2.0, SizeV: 1.0, SizeMax: 1 << 20,
		DstPorts: []uint16{80, 443, 8080, 53, 9100},
	}
}

func drain(t *testing.T, g *Gen, ticks int) []Packet {
	t.Helper()
	var out []Packet
	for i := 0; i < ticks; i++ {
		g.Emit(func(p Packet) { out = append(out, p) })
	}
	return out
}

func TestDeterminism(t *testing.T) {
	a, err := New(cfg(42))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg(42))
	pa, pb := drain(t, a, 500), drain(t, b, 500)
	if len(pa) != len(pb) {
		t.Fatalf("same seed emitted %d vs %d packets", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same seed, different digests")
	}
	c, _ := New(cfg(43))
	drain(t, c, 500)
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds collided on the digest")
	}
}

func TestPoissonRateAndSequencing(t *testing.T) {
	g, err := New(cfg(7))
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 2000 // 200 ms at 100 µs/tick
	ps := drain(t, g, ticks)
	want := float64(g.cfg.RateHz) * (sim.Time(ticks) * g.cfg.Tick).Float64Seconds()
	got := float64(len(ps))
	if got < 0.95*want || got > 1.05*want {
		t.Fatalf("emitted %.0f packets, want %.0f ±5%%", got, want)
	}
	for i, p := range ps {
		if p.Seq != uint64(i) {
			t.Fatalf("packet %d has seq %d", i, p.Seq)
		}
	}
	if g.seq != uint64(len(ps)) {
		t.Fatalf("Emitted %d, drained %d", g.seq, len(ps))
	}
}

func TestChurnKeepsConcurrencyConstant(t *testing.T) {
	g, err := New(cfg(9))
	if err != nil {
		t.Fatal(err)
	}
	ps := drain(t, g, 4000) // ~40k packets over ~256 flows of mean size ~41
	if g.Retired() == 0 {
		t.Fatal("no flow ever retired — churn is dead")
	}
	if g.Spawned() != uint64(g.cfg.Flows)+g.Retired() {
		t.Fatalf("spawned %d, want initial %d + retired %d",
			g.Spawned(), g.cfg.Flows, g.Retired())
	}
	// A flow's key is stable for its whole life, and flow IDs are unique
	// per spawn.
	lastSeen := map[uint64]flowtable.Key{}
	for _, p := range ps {
		if prev, ok := lastSeen[p.FlowID]; ok && prev != p.Key {
			t.Fatalf("flow %d changed key mid-life", p.FlowID)
		}
		lastSeen[p.FlowID] = p.Key
	}
	if uint64(len(lastSeen)) > g.Spawned() {
		t.Fatalf("%d distinct flow IDs with only %d spawns", len(lastSeen), g.Spawned())
	}
}

func TestHeavyTailAndPortMix(t *testing.T) {
	g, err := New(cfg(11))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]uint64{} // flowID → packets seen
	ports := map[uint16]int{}
	seenPort := map[uint64]bool{}
	for _, p := range drain(t, g, 5000) {
		counts[p.FlowID]++
		if !seenPort[p.FlowID] {
			seenPort[p.FlowID] = true
			ports[p.Key.DstPort]++
		}
	}
	var max, sum uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	mean := float64(sum) / float64(len(counts))
	if float64(max) < 3*mean {
		t.Fatalf("tail too light: max flow %d packets vs mean %.1f", max, mean)
	}
	for _, port := range g.cfg.DstPorts {
		if ports[port] == 0 {
			t.Fatalf("port %d never drawn across %d flows", port, len(seenPort))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := cfg(1)
	bad.RateHz = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero rate accepted")
	}
	bad = cfg(1)
	bad.SizeS = 1.0
	if _, err := New(bad); err == nil {
		t.Fatal("degenerate Zipf accepted")
	}
	bad = cfg(1)
	bad.DstPorts = nil
	if _, err := New(bad); err == nil {
		t.Fatal("empty port population accepted")
	}
	bad = cfg(1)
	bad.Tick = sim.Second
	if _, err := New(bad); err == nil {
		t.Fatal("overlong tick (λ overflow) accepted")
	}
}
