package syscall

import (
	"cmp"
	"maps"
	"slices"
	"testing"
)

// pendingModel is the hash map the pending table replaced: call id to
// record. FuzzPendingTable checks the table against it.
type pendingModel map[uint64]*pendingCall

// sortedIDs lists the model's ids in ascending sequence order.
func (m pendingModel) sortedIDs() []uint64 {
	ids := slices.Collect(maps.Keys(m))
	slices.SortFunc(ids, func(a, b uint64) int { return cmp.Compare(idSeq(a), idSeq(b)) })
	return ids
}

// The pending table's operations, one per fuzz byte pair (op, arg).
const (
	ptInsert     = iota // next sequence after arg%4 fire-and-forget gaps
	ptTakeOldest        // the in-order completion
	ptTakeAny           // the arg-th pending call, out of order
	ptHoldFront         // every call but the oldest completes
	ptStale             // an id that already completed
	ptWrongMode         // a pending call's sequence under another mode
	ptNever             // a sequence not issued yet
	ptOps
)

// FuzzPendingTable drives the pending table with random inserts and
// completions and checks it against a map after every step: what each
// take returns, the pending count, the issue order each walks, and that
// no slot still points at a finished call's record.
func FuzzPendingTable(f *testing.F) {
	f.Add([]byte{ptInsert, 0, ptInsert, 1, ptInsert, 2, ptTakeOldest, 0, ptTakeOldest, 0, ptTakeOldest, 0})
	f.Add([]byte{ptInsert, 4, ptInsert, 3, ptInsert, 0, ptTakeAny, 1, ptStale, 0, ptWrongMode, 1, ptNever, 0, ptTakeAny, 0})
	var held []byte
	for round := 0; round < 4; round++ {
		for j := 0; j < 9; j++ {
			held = append(held, ptInsert, byte(j))
		}
		held = append(held, ptHoldFront, 0, ptWrongMode, byte(round), ptStale, byte(round))
	}
	f.Add(append(held, ptTakeOldest, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tbl pendingTable
		model := pendingModel{}
		var done []uint64
		finished := map[*pendingCall]bool{}
		nextSeq, peak := uint64(1), 0
		take := func(id uint64) {
			p := tbl.take(id)
			if want := model[id]; p != want {
				t.Fatalf("take(%#x) = %p, want %p", id, p, want)
			}
			if p != nil {
				delete(model, id)
				done = append(done, id)
				finished[p] = true
			}
		}
		for len(ops) >= 2 {
			op, arg := ops[0]%ptOps, ops[1]
			ops = ops[2:]
			ids := model.sortedIDs()
			switch op {
			case ptInsert:
				nextSeq += uint64(arg % 4)
				id := packID(nextSeq, Mode(arg>>2)%2)
				nextSeq++
				p := &pendingCall{}
				tbl.push(id, p)
				model[id] = p
				peak = max(peak, len(model))
			case ptTakeOldest:
				if len(ids) > 0 {
					take(ids[0])
				}
			case ptTakeAny:
				if len(ids) > 0 {
					take(ids[int(arg)%len(ids)])
				}
			case ptHoldFront:
				for _, id := range ids[min(1, len(ids)):] {
					take(id)
				}
			case ptStale:
				if len(done) > 0 {
					take(done[int(arg)%len(done)])
				}
			case ptWrongMode:
				if len(ids) > 0 {
					id := ids[int(arg)%len(ids)]
					take(packID(idSeq(id), (idMode(id)+1+Mode(arg)%3)%4))
				}
			case ptNever:
				take(packID(nextSeq+uint64(arg), ModeAsync))
			}
			checkPending(t, &tbl, model, finished, peak)
		}
	})
}

// checkPending compares the table with the model.
func checkPending(t *testing.T, tbl *pendingTable, model pendingModel, finished map[*pendingCall]bool, peak int) {
	t.Helper()
	if tbl.npend != len(model) {
		t.Fatalf("npend = %d, want %d", tbl.npend, len(model))
	}
	var ids []uint64
	tbl.each(func(id uint64, p *pendingCall) {
		if model[id] != p {
			t.Fatalf("each yields %#x → %p, want %p", id, p, model[id])
		}
		ids = append(ids, id)
	})
	if want := model.sortedIDs(); !slices.Equal(ids, want) {
		t.Fatalf("each walks %x, want %x", ids, want)
	}
	for k := range tbl.slots {
		if p := tbl.slots[k].p; p != nil && finished[p] {
			t.Fatalf("slot %d still points at a finished call", k)
		}
	}
	if tbl.n > 0 && (tbl.at(0).p == nil || tbl.at(tbl.n-1).p == nil) {
		t.Fatalf("tombstone at an end of %d slots", tbl.n)
	}
	if len(tbl.slots) > max(8, 4*peak) {
		t.Fatalf("%d slots for at most %d calls pending at once", len(tbl.slots), peak)
	}
}
