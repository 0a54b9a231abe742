package sim

// FIFO is a first-in, first-out backlog that reuses its backing array, for
// the per-event queues the models keep above the engine (device work,
// worker-pool items, channel dispatch and descriptor waits). Popping
// advances a head index instead of re-slicing, and a push compacts the
// popped prefix before append would grow past it, so a FIFO stops
// allocating once its array covers the peak backlog. The zero value is an
// empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
