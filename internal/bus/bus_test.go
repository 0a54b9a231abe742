package bus

import (
	"testing"
	"testing/quick"

	"hydra/internal/sim"
)

func testBus(multicast bool) (*sim.Engine, *Bus) {
	eng := sim.NewEngine(1)
	cfg := Config{
		BytesPerSec:         1e9, // 1 GB/s: 1 byte per ns, easy arithmetic
		TransactionOverhead: 100,
		MulticastCapable:    multicast,
	}
	return eng, New(eng, cfg)
}

func TestTransferTime(t *testing.T) {
	_, b := testBus(true)
	if got := b.TransferTime(0); got != 100 {
		t.Fatalf("TransferTime(0) = %v, want 100", got)
	}
	if got := b.TransferTime(1000); got != 1100 {
		t.Fatalf("TransferTime(1000) = %v, want 1100", got)
	}
}

func TestTransferCompletion(t *testing.T) {
	eng, b := testBus(true)
	var doneAt sim.Time
	b.Transfer("nic", MainMemory, 1000, func() { doneAt = eng.Now() })
	eng.RunAll()
	if doneAt != 1100 {
		t.Fatalf("transfer completed at %v, want 1100", doneAt)
	}
}

func TestSerialization(t *testing.T) {
	eng, b := testBus(true)
	var first, second sim.Time
	b.Transfer("nic", MainMemory, 1000, func() { first = eng.Now() })
	b.Transfer("gpu", MainMemory, 1000, func() { second = eng.Now() })
	eng.RunAll()
	if first != 1100 {
		t.Fatalf("first done at %v", first)
	}
	if second != 2200 {
		t.Fatalf("second done at %v, want queued behind first (2200)", second)
	}
}

func TestMulticastSingleTransaction(t *testing.T) {
	eng, b := testBus(true)
	var doneAt sim.Time
	b.TransferMulti("nic", []Agent{"gpu", "disk"}, 1000, func() { doneAt = eng.Now() })
	eng.RunAll()
	if doneAt != 1100 {
		t.Fatalf("multicast done at %v, want single transaction (1100)", doneAt)
	}
	if b.Total().Transactions != 1 {
		t.Fatalf("transactions = %d, want 1", b.Total().Transactions)
	}
}

func TestMulticastFallback(t *testing.T) {
	eng, b := testBus(false)
	var doneAt sim.Time
	calls := 0
	b.TransferMulti("nic", []Agent{"gpu", "disk"}, 1000, func() { calls++; doneAt = eng.Now() })
	eng.RunAll()
	if doneAt != 2200 {
		t.Fatalf("fallback multicast done at %v, want 2200", doneAt)
	}
	if calls != 1 {
		t.Fatalf("done called %d times, want once", calls)
	}
	if b.Total().Transactions != 2 {
		t.Fatalf("transactions = %d, want 2", b.Total().Transactions)
	}
}

func TestAccounting(t *testing.T) {
	eng, b := testBus(true)
	b.Transfer("nic", MainMemory, 500, nil)
	b.Transfer("nic", "gpu", 300, nil)
	eng.RunAll()
	if got := b.Total(); got.Bytes != 800 || got.Transactions != 2 {
		t.Fatalf("total = %+v", got)
	}
}

func TestUtilization(t *testing.T) {
	eng, b := testBus(true)
	b.Transfer("nic", MainMemory, 900, func() {}) // 1000ns wire time
	eng.RunAll()                                  // now = 1000
	eng.Schedule(1000, func() {})
	eng.RunAll() // now = 2000
	// Utilization as a report derives it: wire time rebuilt from the
	// Total counters, over elapsed time.
	st := b.Total()
	wire := sim.Time(st.Transactions)*b.TransferTime(0) + sim.Time(st.Bytes) // 1 byte per ns
	if u := float64(wire) / float64(eng.Now()); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	_, b := testBus(true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative size")
		}
	}()
	b.TransferTime(-1)
}

// Property: completion times are monotone in issue order (FIFO bus), and
// total bytes equal the sum of transfer sizes.
func TestFIFOProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		eng, b := testBus(true)
		var completions []sim.Time
		var total uint64
		for _, s := range sizes {
			total += uint64(s)
			b.Transfer("a", "b", int(s), func() {
				completions = append(completions, eng.Now())
			})
		}
		eng.RunAll()
		if len(completions) != len(sizes) {
			return false
		}
		for i := 1; i < len(completions); i++ {
			if completions[i] < completions[i-1] {
				return false
			}
		}
		return b.Total().Bytes == total
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferGatherOneTransaction(t *testing.T) {
	eng, b := testBus(true)
	var doneAt sim.Time
	b.TransferGather("nic", MainMemory, []int{400, 300, 300}, func() { doneAt = eng.Now() })
	eng.RunAll()
	// One arbitration (100) + 1000 bytes of wire time; SegmentOverhead is
	// zero in the test config, so a gather costs exactly one transaction.
	if doneAt != 1100 {
		t.Fatalf("gather completed at %v, want 1100", doneAt)
	}
	st := b.Total()
	if st.Transactions != 1 || st.Bytes != 1000 {
		t.Fatalf("gather stats = %+v", st)
	}
}

func TestTransferGatherSegmentOverhead(t *testing.T) {
	eng := sim.NewEngine(1)
	b := New(eng, Config{BytesPerSec: 1e9, TransactionOverhead: 100, SegmentOverhead: 10})
	var doneAt sim.Time
	b.TransferGather("nic", MainMemory, []int{500, 500}, func() { doneAt = eng.Now() })
	eng.RunAll()
	// 100 arbitration + 1000 wire + 10 for the second segment's descriptor.
	if doneAt != 1110 {
		t.Fatalf("gather with segment overhead completed at %v, want 1110", doneAt)
	}
}

func TestTransferGatherCheaperThanSeparateTransfers(t *testing.T) {
	run := func(gather bool) sim.Time {
		eng := sim.NewEngine(1)
		b := New(eng, DefaultConfig())
		var doneAt sim.Time
		done := func() { doneAt = eng.Now() }
		if gather {
			b.TransferGather("nic", MainMemory, []int{1500, 1500, 1500, 1500}, done)
		} else {
			for i := 0; i < 4; i++ {
				b.Transfer("nic", MainMemory, 1500, done)
			}
		}
		eng.RunAll()
		return doneAt
	}
	if g, s := run(true), run(false); g >= s {
		t.Fatalf("gather (%v) not cheaper than 4 separate transfers (%v)", g, s)
	}
}

func TestTransferGatherPanicsOnBadInput(t *testing.T) {
	_, b := testBus(true)
	for _, sizes := range [][]int{nil, {}, {10, -1}} {
		sizes := sizes
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("gather %v did not panic", sizes)
				}
			}()
			b.TransferGather("nic", MainMemory, sizes, nil)
		}()
	}
}
