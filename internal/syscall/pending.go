package syscall

// pendingTable is an issuer's in-flight calls that expect a completion, in
// issue order. Sequence numbers ascend, so the slots are sorted by
// construction and no id needs hashing: a completion looks at the oldest
// slot first (completions almost always arrive in issue order) and
// otherwise binary-searches the slots by sequence.
//
// The slots form a ring over a power-of-two array that is reused and grows
// by doubling. A call that finishes out of order leaves a tombstone (a
// slot with a nil record) that keeps the ring sorted; tombstones at either
// end are trimmed at once, and a full ring that is at least half
// tombstones is squeezed in place instead of grown. The array therefore
// never holds more than max(8, 4·peak) slots, where peak is the most calls
// ever pending at once, however far apart their sequences are (a restored
// checkpoint may hold sequences 1 and 1<<40).
type pendingTable struct {
	slots []pendingSlot // the ring; its length is zero or a power of two
	head  int           // index of the oldest slot
	n     int           // slots in use from head, tombstones included
	npend int           // slots that still hold a call
}

// pendingSlot is one issued call. The id stays when the call finishes out
// of order, so the slot still sorts.
type pendingSlot struct {
	id uint64
	p  *pendingCall // nil once the call finished (a tombstone)
}

// at returns the k-th slot from the oldest.
func (t *pendingTable) at(k int) *pendingSlot { return &t.slots[(t.head+k)&(len(t.slots)-1)] }

// last returns the newest pending sequence, or 0 when nothing is pending.
func (t *pendingTable) last() uint64 {
	if t.n == 0 {
		return 0
	}
	return idSeq(t.at(t.n - 1).id)
}

// push appends a call whose sequence is above every pending one.
func (t *pendingTable) push(id uint64, p *pendingCall) {
	if t.n == len(t.slots) {
		t.makeRoom()
	}
	*t.at(t.n) = pendingSlot{id, p}
	t.n++
	t.npend++
}

// makeRoom frees at least one slot in a full ring: it doubles the array
// when calls fill more than half of it, and otherwise squeezes the
// tombstones out in place. Either way the calls keep their order.
func (t *pendingTable) makeRoom() {
	if len(t.slots) == 0 || 2*t.npend > len(t.slots) {
		slots := make([]pendingSlot, max(8, 2*len(t.slots)))
		for k := 0; k < t.n; k++ {
			slots[k] = *t.at(k)
		}
		t.slots, t.head = slots, 0
		return
	}
	// Each call moves to a position no later than the one it is read
	// from, so the squeeze overwrites only slots already read.
	w := 0
	for k := 0; k < t.n; k++ {
		if s := *t.at(k); s.p != nil {
			*t.at(w) = s
			w++
		}
	}
	for k := w; k < t.n; k++ {
		*t.at(k) = pendingSlot{}
	}
	t.n = w
}

// take removes and returns the call with exactly this id, mode bits
// included, or nil when no such call is pending: it already finished, was
// never issued, or the id carries another mode.
func (t *pendingTable) take(id uint64) *pendingCall {
	k, ok := t.find(id)
	if !ok {
		return nil
	}
	s := t.at(k)
	p := s.p
	s.p = nil
	t.npend--
	switch {
	case t.npend == 0:
		t.head, t.n = 0, 0
	case k == 0:
		for t.at(0).p == nil {
			t.head = (t.head + 1) & (len(t.slots) - 1)
			t.n--
		}
	case k == t.n-1:
		for t.at(t.n-1).p == nil {
			t.n--
		}
	}
	return p
}

// find returns the position, counted from the oldest slot, of the pending
// call with this id.
func (t *pendingTable) find(id uint64) (int, bool) {
	if t.n == 0 {
		return 0, false
	}
	if t.at(0).id == id {
		return 0, true
	}
	seq := idSeq(id)
	lo, hi := 1, t.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idSeq(t.at(mid).id) < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == t.n {
		return 0, false
	}
	s := t.at(lo)
	return lo, s.id == id && s.p != nil
}

// each calls fn on every pending call in ascending sequence order, the
// deterministic order checkpoints and reissues use.
func (t *pendingTable) each(fn func(id uint64, p *pendingCall)) {
	for k := 0; k < t.n; k++ {
		if s := t.at(k); s.p != nil {
			fn(s.id, s.p)
		}
	}
}
