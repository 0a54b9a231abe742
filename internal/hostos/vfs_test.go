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
	if p.queue.Len() != 0 || len(p.idle) != 2 {
		t.Fatalf("pool after drain: queue=%d idle=%d, want 0/2", p.queue.Len(), len(p.idle))
	}
}
