package hostos

import (
	"errors"
	"testing"
)

// A second Free of the same allocation must return the typed *FreeError
// and leave the LiveBytes ledger untouched — silently double-counting
// freedBytes would let LiveBytes go negative and mask real leaks.
func TestDoubleFreeGuard(t *testing.T) {
	_, m := testMachine()
	a := m.Alloc(4096)
	b := m.Alloc(512)
	if err := m.Free(a, 4096); err != nil {
		t.Fatalf("first free: %v", err)
	}
	live := m.LiveBytes()
	err := m.Free(a, 4096)
	var fe *FreeError
	if !errors.As(err, &fe) {
		t.Fatalf("double free returned %v, want *FreeError", err)
	}
	if m.LiveBytes() != live {
		t.Fatalf("double free moved LiveBytes %d → %d", live, m.LiveBytes())
	}
	// Wrong size on a live allocation is rejected the same way.
	if err := m.Free(b, 256); err == nil {
		t.Fatal("size-mismatched free succeeded")
	} else if !errors.As(err, &fe) {
		t.Fatalf("size mismatch returned %v, want *FreeError", err)
	}
	// A never-allocated address is rejected.
	if err := m.Free(0xdead0000, 64); !errors.As(err, &fe) {
		t.Fatalf("unknown-address free returned %v, want *FreeError", err)
	}
	if err := m.Free(b, 512); err != nil {
		t.Fatalf("valid free after rejections: %v", err)
	}
	if m.LiveBytes() != 0 {
		t.Fatalf("LiveBytes = %d after balanced alloc/free, want 0", m.LiveBytes())
	}
}

func TestVFSLocalFileRoundTrip(t *testing.T) {
	_, m := testMachine()
	v := NewVFS(m)

	fd, err := v.Open("/tmp/x", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if n, err := v.Write(fd, 0, []byte("hello")); err != nil || n != 5 {
		t.Fatalf("write = (%d, %v)", n, err)
	}
	if n, err := v.Write(fd, 3, []byte("LOWS")); err != nil || n != 4 {
		t.Fatalf("extend write = (%d, %v)", n, err)
	}
	if data, err := v.Read(fd, 0, 16); err != nil || string(data) != "helLOWS" {
		t.Fatalf("read = (%q, %v), want helLOWS", data, err)
	}
	if err := v.CloseFD(fd); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := v.CloseFD(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("second close = %v, want ErrBadFD", err)
	}
	if f, err := v.Open("/tmp/missing", false); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing = (%d, %v), want ErrNotExist", f, err)
	}
	if v.OpenFDs() != 0 {
		t.Fatalf("OpenFDs = %d, want 0", v.OpenFDs())
	}
}

func TestVFSMapUnmapBalancesLedger(t *testing.T) {
	_, m := testMachine()
	v := NewVFS(m)
	base := m.LiveBytes()
	a := v.Map(8192)
	if m.LiveBytes() != base+8192 {
		t.Fatalf("LiveBytes = %d after Map, want %d", m.LiveBytes(), base+8192)
	}
	if err := v.Unmap(a); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if m.LiveBytes() != base {
		t.Fatalf("LiveBytes = %d after Unmap, want %d", m.LiveBytes(), base)
	}
	var fe *FreeError
	if err := v.Unmap(a); !errors.As(err, &fe) {
		t.Fatalf("double unmap = %v, want *FreeError", err)
	}
}

// The pool bounds concurrency: with 2 workers and 3 items, the third
// waits until a done() frees a worker, and everything runs FIFO.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	eng, m := testMachine()
	p := NewWorkerPool(m, "sysd", 2)
	var order []int
	inFlight, maxFlight := 0, 0
	for i := 0; i < 5; i++ {
		i := i
		p.Submit(func(task *Task, done func()) {
			inFlight++
			if inFlight > maxFlight {
				maxFlight = inFlight
			}
			task.Syscall(2400, func() {
				order = append(order, i)
				inFlight--
				done()
			})
		})
	}
	eng.RunAll()
	if maxFlight != 2 {
		t.Fatalf("max in-flight = %d, want 2", maxFlight)
	}
	if len(order) != 5 {
		t.Fatalf("completed %d items, want 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
	if p.Submitted() != 5 || p.QueueDepth() != 0 || p.IdleWorkers() != 2 {
		t.Fatalf("pool accounting: submitted=%d queue=%d idle=%d", p.Submitted(), p.QueueDepth(), p.IdleWorkers())
	}
	if p.MaxQueueDepth() != 3 {
		t.Fatalf("MaxQueueDepth = %d, want 3", p.MaxQueueDepth())
	}
}
