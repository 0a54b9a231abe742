package sim

// The engine's pending set is one binary min-heap of pooled slots keyed
// by (at, seq). seq is unique per engine, so the key is a strict total
// order and the heap pops exactly the sequence any correct priority
// queue would: that order is the determinism invariant everything in
// this repository leans on. Each pending slot records its heap index,
// so Cancel removes it eagerly in O(log n) instead of leaving a
// tombstone to pop later. TestEngineMatchesReferenceHeap cross-checks
// the fire order against a container/heap engine on randomized
// schedule/cancel/run workloads.

// slot is the pooled storage behind a public Event handle. Engine owns
// a free list of slots; gen increments every time a slot is reused so
// stale Event handles become inert instead of corrupting the queue.
type slot struct {
	at  Time
	seq uint64
	fn  func()
	own *Engine

	gen   uint64
	state uint8 // statePending, stateFired, stateCanceled
	pos   int32 // index in the owning engine's heap while pending
}

const (
	statePending uint8 = iota
	stateFired
	stateCanceled
)

// before reports the (at, seq) total order used everywhere.
func (s *slot) before(o *slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// eventHeap is an (at, seq) min-heap that keeps every slot's pos equal
// to its index.
type eventHeap []*slot

// peek returns the earliest pending slot without removing it, or nil
// when empty.
func (h eventHeap) peek() *slot {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h *eventHeap) push(s *slot) {
	s.pos = int32(len(*h))
	*h = append(*h, s)
	h.siftUp(int(s.pos))
}

// pop removes and returns the earliest pending slot, or nil when empty.
func (h *eventHeap) pop() *slot {
	s := h.peek()
	if s != nil {
		h.remove(s)
	}
	return s
}

// remove detaches a pending slot. The last element fills the hole and
// sifts down, or up when it is earlier than the hole's parent (possible
// only for an interior hole, such as a canceled event's).
func (h *eventHeap) remove(s *slot) {
	a := *h
	i, last := int(s.pos), len(a)-1
	a[i] = a[last]
	a[i].pos = int32(i)
	a[last] = nil
	*h = a[:last]
	if i != last && !h.siftDown(i) {
		h.siftUp(i)
	}
}

func (h eventHeap) siftUp(i int) {
	s := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = int32(i)
		i = p
	}
	h[i] = s
	s.pos = int32(i)
}

// siftDown reports whether the element at i moved.
func (h eventHeap) siftDown(i int) bool {
	s := h[i]
	n := len(h)
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(s) {
			break
		}
		h[i] = h[c]
		h[i].pos = int32(i)
		i = c
	}
	h[i] = s
	s.pos = int32(i)
	return i != i0
}
