package hostos

import "fmt"

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
	idle  []*Task
	queue []func(*Task, func())
}

// NewWorkerPool builds a pool of `workers` kernel tasks named
// name/0..n-1. workers < 1 is clamped to 1.
func NewWorkerPool(m *Machine, name string, workers int) *WorkerPool {
	if workers < 1 {
		workers = 1
	}
	p := &WorkerPool{m: m}
	for i := workers - 1; i >= 0; i-- {
		p.idle = append(p.idle, m.NewTask(fmt.Sprintf("%s/%d", name, i)))
	}
	return p
}

// Submit queues fn for execution on the next free worker. fn runs with a
// worker Task for charging kernel cycles and MUST call done() exactly once
// when its (possibly asynchronous) work completes; the worker is held
// until then.
func (p *WorkerPool) Submit(fn func(t *Task, done func())) {
	if n := len(p.idle); n > 0 {
		t := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.run(t, fn)
		return
	}
	p.queue = append(p.queue, fn)
}

func (p *WorkerPool) run(t *Task, fn func(*Task, func())) {
	fn(t, func() {
		if len(p.queue) > 0 {
			next := p.queue[0]
			p.queue = p.queue[1:]
			p.run(t, next)
			return
		}
		p.idle = append(p.idle, t)
	})
}
