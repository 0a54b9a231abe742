package netsim

import (
	"testing"
	"testing/quick"

	"hydra/internal/sim"
	"hydra/internal/stats"
)

func rig() (*sim.Engine, *Network) {
	eng := sim.NewEngine(5)
	return eng, New(eng, GigabitSwitched())
}

func TestDeliver(t *testing.T) {
	eng, n := rig()
	a := n.Attach("a")
	b := n.Attach("b")
	var got Packet
	calls := 0
	b.Bind(9, func(p Packet) { got = p; calls++ })
	if err := a.Send("b", 9, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if string(got.Payload) != "hello" || got.Src != "a" || got.Dst != "b" || got.Port != 9 {
		t.Fatalf("got %+v", got)
	}
	if calls != 1 {
		t.Fatalf("delivered %d times, want once", calls)
	}
}

func TestPayloadCopied(t *testing.T) {
	eng, n := rig()
	a := n.Attach("a")
	b := n.Attach("b")
	var got []byte
	b.Bind(1, func(p Packet) { got = p.Payload })
	buf := []byte{1, 2, 3}
	a.Send("b", 1, buf)
	buf[0] = 99 // mutate after send
	eng.RunAll()
	if got[0] != 1 {
		t.Fatal("payload aliased sender buffer")
	}
}

func TestUnknownDestination(t *testing.T) {
	_, n := rig()
	a := n.Attach("a")
	if err := a.Send("ghost", 1, nil); err == nil {
		t.Fatal("send to unknown station succeeded")
	}
}

func TestMTU(t *testing.T) {
	_, n := rig()
	a := n.Attach("a")
	n.Attach("b")
	if err := a.Send("b", 1, make([]byte, n.cfg.MTU+1)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

func TestUnboundPortDropsSilently(t *testing.T) {
	eng, n := rig()
	a := n.Attach("a")
	b := n.Attach("b")
	got := 0
	b.Bind(1, func(Packet) { got++ })
	if err := a.Send("b", 42, []byte("x")); err != nil {
		t.Fatal(err)
	}
	eng.RunAll() // must not panic
	if got != 0 {
		t.Fatal("packet for an unbound port reached another port's handler")
	}
}

func TestDuplicateStationPanics(t *testing.T) {
	_, n := rig()
	n.Attach("a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	n.Attach("a")
}

func TestLatencyComponents(t *testing.T) {
	eng, n := rig()
	a := n.Attach("a")
	b := n.Attach("b")
	var at sim.Time
	b.Bind(1, func(Packet) { at = eng.Now() })
	a.Send("b", 1, make([]byte, 1000))
	eng.RunAll()
	cfg := n.cfg
	wire := sim.Time(1000 / cfg.BytesPerSec * float64(sim.Second))
	min := 2*wire + cfg.SwitchLatency + 2*cfg.PropDelay
	if at < min {
		t.Fatalf("delivered at %v, faster than physics (%v)", at, min)
	}
	if at > min+10*cfg.Jitter {
		t.Fatalf("delivered at %v, too slow vs %v", at, min)
	}
}

func TestJitterIsSmall(t *testing.T) {
	eng, n := rig()
	a := n.Attach("a")
	b := n.Attach("b")
	var arrivals []float64
	b.Bind(1, func(Packet) { arrivals = append(arrivals, eng.Now().Milliseconds()) })
	// Perfectly paced source: 1 kB every 5 ms.
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * 5 * sim.Millisecond
		eng.At(at, func() { a.Send("b", 1, make([]byte, 1024)) })
	}
	eng.RunAll()
	gaps := make([]float64, 0, len(arrivals)-1)
	for i := 1; i < len(arrivals); i++ {
		gaps = append(gaps, arrivals[i]-arrivals[i-1])
	}
	s := stats.Summarize(gaps)
	if s.Mean < 4.99 || s.Mean > 5.01 {
		t.Fatalf("mean gap = %v ms", s.Mean)
	}
	// The network itself must contribute far less jitter than the paper's
	// offloaded-server stddev (0.0369 ms), or it would mask the effect.
	if s.StdDev > 0.03 {
		t.Fatalf("network jitter stddev = %v ms, want < 0.03", s.StdDev)
	}
}

// Property: per-flow FIFO — packets between one pair arrive in send order.
func TestFIFOProperty(t *testing.T) {
	prop := func(sizes []uint8, seed int64) bool {
		eng := sim.NewEngine(seed)
		n := New(eng, GigabitSwitched())
		a := n.Attach("a")
		b := n.Attach("b")
		var got []byte
		b.Bind(1, func(p Packet) { got = append(got, p.Payload[0]) })
		for i := range sizes {
			payload := make([]byte, int(sizes[i])+1)
			payload[0] = byte(i)
			a.Send("b", 1, payload)
		}
		eng.RunAll()
		if len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
