// Package netmodel reproduces Figure 1 of the paper: the GHz/Gbps ratio of
// host TCP processing for transmit and receive, across packet sizes.
//
// The figure (from Foong et al., "TCP performance re-visited", ISPASS 2003)
// motivates offloading: the host spends on the order of 1 GHz of CPU per
// Gb/s of TCP traffic, more on receive than transmit, and dramatically more
// for small packets. The underlying mechanics are well understood and are
// modeled here explicitly:
//
//   - a fixed per-packet cost (interrupt, protocol headers, socket wakeups)
//     that dominates at small packet sizes;
//   - a per-byte cost from data touching (checksum + one copy on transmit,
//     checksum + two touches on receive, since the receive path copies into
//     the application buffer after a cache-cold DMA landing);
//   - receive additionally pays interrupt-driven scheduling overhead that
//     transmit's send-side batching avoids.
//
// GHz/Gbps = (cycles consumed per second) / 1e9, per (Gb/s delivered), i.e.
// cycles-per-bit divided by (1e9/1e9) — conveniently, the metric equals
// cycles-per-byte × 8 / 1000 when cycles are counted at nanosecond scale.
package netmodel

// Direction selects transmit or receive.
type Direction int

// Directions.
const (
	Transmit Direction = iota
	Receive
)

// CostModel holds the calibrated cycle costs of the host TCP path.
type CostModel struct {
	// PerPacketTX/RX are fixed per-packet cycles (protocol, descriptors,
	// completions, socket bookkeeping).
	PerPacketTX float64
	PerPacketRX float64
	// PerByteTX/RX are data-touching cycles per payload byte.
	PerByteTX float64
	PerByteRX float64
	// InterruptRX is the extra receive-side interrupt + reschedule cost,
	// amortized per packet (transmit completions are batched).
	InterruptRX float64
}

// Foong2003 is calibrated against the shape of Foong et al.'s measurements
// on a ~2.4 GHz Pentium 4: ≈1 GHz/Gbps around 1 kB packets on receive,
// lower on transmit, rising steeply below 256 B and flattening toward
// 64 kB.
func Foong2003() CostModel {
	return CostModel{
		PerPacketTX: 6500,
		PerPacketRX: 8500,
		PerByteTX:   0.55,
		PerByteRX:   0.95,
		InterruptRX: 2600,
	}
}

// CyclesPerPacket reports modeled host cycles to move one packet of
// size payload bytes in the given direction.
func (m CostModel) CyclesPerPacket(dir Direction, size int) float64 {
	if size <= 0 {
		size = 1
	}
	switch dir {
	case Receive:
		return m.PerPacketRX + m.InterruptRX + m.PerByteRX*float64(size)
	default:
		return m.PerPacketTX + m.PerByteTX*float64(size)
	}
}

// GHzPerGbps reports the figure's metric for one packet size: host GHz
// consumed per Gb/s of payload throughput. Derivation: moving 1 Gb/s of
// payload in packets of `size` bytes requires (1e9/8)/size packets/s, each
// costing CyclesPerPacket; GHz = cycles/s ÷ 1e9.
func (m CostModel) GHzPerGbps(dir Direction, size int) float64 {
	if size <= 0 {
		size = 1
	}
	packetsPerSec := (1e9 / 8) / float64(size)
	cyclesPerSec := packetsPerSec * m.CyclesPerPacket(dir, size)
	return cyclesPerSec / 1e9
}

// Point is one packet-size sample of the figure.
type Point struct {
	PacketBytes int
	Ratio       float64
}

// Series returns the figure's curve for a direction over the standard
// packet-size sweep (64 B – 64 kB, doubling).
func (m CostModel) Series(dir Direction) []Point {
	var out []Point
	for size := 64; size <= 65536; size *= 2 {
		out = append(out, Point{PacketBytes: size, Ratio: m.GHzPerGbps(dir, size)})
	}
	return out
}
