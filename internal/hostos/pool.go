package hostos

import (
	"fmt"

	"hydra/internal/sim"
)

// WorkerPool is a fixed set of kernel worker tasks — the model of a host
// dispatcher goroutine pool. Submitted items run FIFO with at most
// `workers` in service at once; each item receives a dedicated Task for
// its kernel segments and signals completion through done(). On a single
// simulated CPU the pool does not create parallelism — it bounds how many
// dispatched items may interleave their kernel work with the rest of the
// machine, which is exactly the dispatcher-concurrency knob the syscall
// layer needs.
type WorkerPool struct {
	m     *Machine
	idle  []*worker
	queue sim.FIFO[func(*Task, func())]
}

// worker is one pool task with its done signal bound once, so handing an
// item to a worker allocates nothing.
type worker struct {
	p      *WorkerPool
	t      *Task
	doneFn func()
}

// NewWorkerPool builds a pool of `workers` kernel tasks named
// name/0..n-1. workers < 1 is clamped to 1.
func NewWorkerPool(m *Machine, name string, workers int) *WorkerPool {
	if workers < 1 {
		workers = 1
	}
	p := &WorkerPool{m: m}
	for i := workers - 1; i >= 0; i-- {
		w := &worker{p: p, t: m.NewTask(fmt.Sprintf("%s/%d", name, i))}
		w.doneFn = w.done
		p.idle = append(p.idle, w)
	}
	return p
}

// Submit queues fn for execution on the next free worker. fn runs with a
// worker Task for charging kernel cycles and MUST call done() exactly once
// when its (possibly asynchronous) work completes; the worker is held
// until then.
func (p *WorkerPool) Submit(fn func(t *Task, done func())) {
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		fn(w.t, w.doneFn)
		return
	}
	p.queue.Push(fn)
}

// done hands the worker the next waiting item, or parks it idle.
func (w *worker) done() {
	p := w.p
	if p.queue.Len() == 0 {
		p.idle = append(p.idle, w)
		return
	}
	p.queue.Pop()(w.t, w.doneFn)
}
