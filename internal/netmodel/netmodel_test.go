package netmodel

import (
	"testing"
)

func TestShapeMatchesFigure1(t *testing.T) {
	m := Foong2003()

	// 1. Ratio decreases monotonically with packet size (both directions).
	for _, dir := range []Direction{Transmit, Receive} {
		pts := Series(t, m, dir)
		for i := 1; i < len(pts); i++ {
			if pts[i].Ratio >= pts[i-1].Ratio {
				t.Fatalf("%v ratio not decreasing at %d B: %v → %v",
					dir, pts[i].PacketBytes, pts[i-1].Ratio, pts[i].Ratio)
			}
		}
	}

	// 2. Receive costs more than transmit at every size.
	tx, rx := m.Series(Transmit), m.Series(Receive)
	for i := range tx {
		if rx[i].Ratio <= tx[i].Ratio {
			t.Fatalf("receive (%v) not above transmit (%v) at %d B",
				rx[i].Ratio, tx[i].Ratio, tx[i].PacketBytes)
		}
	}

	// 3. Small packets cost >1 GHz/Gbps; the paper's headline is that
	//    "host CPUs can spend all of their cycles just processing network
	//    traffic" — at 64 B both directions exceed 1 GHz/Gbps by a lot.
	if m.GHzPerGbps(Receive, 64) < 5 {
		t.Fatalf("64B receive ratio = %v, want >> 1", m.GHzPerGbps(Receive, 64))
	}
	if m.GHzPerGbps(Transmit, 64) < 5 {
		t.Fatalf("64B transmit ratio = %v, want >> 1", m.GHzPerGbps(Transmit, 64))
	}

	// 4. Around the 1 kB operating point the receive path costs on the
	//    order of 1 GHz/Gbps (Foong et al.'s rule of thumb).
	r1k := m.GHzPerGbps(Receive, 1024)
	if r1k < 0.8 || r1k > 3 {
		t.Fatalf("1kB receive ratio = %v, want ~1-2", r1k)
	}

	// 5. Large packets amortize: at 64 kB the ratio approaches the
	//    per-byte floor and is far below the 64 B cost.
	if m.GHzPerGbps(Receive, 65536) > r1k/2 {
		t.Fatalf("64kB receive ratio %v did not amortize vs 1kB %v",
			m.GHzPerGbps(Receive, 65536), r1k)
	}
}

// Series is a test helper wrapper to keep the shape test readable.
func Series(t *testing.T, m CostModel, dir Direction) []Point {
	t.Helper()
	pts := m.Series(dir)
	if len(pts) != 11 { // 64..65536 doubling
		t.Fatalf("series has %d points", len(pts))
	}
	return pts
}

func TestCyclesPerPacketGuards(t *testing.T) {
	m := Foong2003()
	if m.CyclesPerPacket(Transmit, 0) <= 0 || m.GHzPerGbps(Receive, -5) <= 0 {
		t.Fatal("degenerate sizes must still cost cycles")
	}
}
