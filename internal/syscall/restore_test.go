package syscall

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hydra/internal/bus"
	"hydra/internal/call"
	"hydra/internal/device"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// pendingCheckpoint issues n async log calls on a fresh rig and
// checkpoints them while all n are still in flight.
func pendingCheckpoint(t testing.TB, n int) []byte {
	r := newRig(t, batchedProfile(), nil)
	for j := 0; j < n; j++ {
		if err := r.iss.Log("pending", ModeAsync); err != nil {
			t.Fatal(err)
		}
	}
	return r.iss.Checkpoint()
}

// ckptEntries splits a checkpoint into its 13-byte header and its entries.
func ckptEntries(b []byte) (head []byte, entries [][]byte) {
	head, rest := b[:13], b[13:]
	for len(rest) > 0 {
		n := ckptEntryHeader + int(binary.LittleEndian.Uint32(rest[17:]))
		entries = append(entries, rest[:n])
		rest = rest[n:]
	}
	return head, entries
}

// joinCkpt rebuilds a checkpoint from a header and entries, fixing the
// entry count.
func joinCkpt(head []byte, entries ...[]byte) []byte {
	b := append([]byte(nil), head...)
	binary.LittleEndian.PutUint32(b[9:], uint32(len(entries)))
	for _, e := range entries {
		b = append(b, e...)
	}
	return b
}

// removedOpEntry rebuilds a checkpoint entry as a checkpoint from before
// the file, socket and host-memory ops were removed would hold it: op
// byte op and a request for method under the entry's id.
func removedOpEntry(t testing.TB, entry []byte, op byte, method string) []byte {
	id := binary.LittleEndian.Uint64(entry)
	wire, err := call.Marshal(&call.Call{Iface: IfaceGUID, Method: method, ReturnDesc: id})
	if err != nil {
		t.Fatal(err)
	}
	e := append([]byte(nil), entry[:16]...)
	e = append(e, op)
	e = binary.LittleEndian.AppendUint32(e, uint32(len(wire)))
	return append(e, wire...)
}

// removedOps are the op bytes and wire names of the deleted syscalls.
var removedOps = []string{1: "open", 2: "read", 3: "write", 4: "close", 5: "send", 6: "map", 7: "unmap"}

// restoreIssuer is a fresh, unattached issuer with room for four
// in-flight calls.
func restoreIssuer() *Issuer {
	eng := sim.NewEngine(1)
	host := hostos.New(eng, "host", hostos.PentiumIV())
	disk := device.New(eng, host, bus.New(eng, bus.DefaultConfig()), device.SmartDisk("disk0"))
	return NewIssuer(disk, Profile{Credits: 4}, nil)
}

// Restored calls are re-sent in ascending sequence order, not in the
// pending map's iteration order.
func TestRestoreReissuesInSequenceOrder(t *testing.T) {
	ck := pendingCheckpoint(t, 8)
	for run := 0; run < 20; run++ {
		r := newRig(t, batchedProfile(), nil)
		tr := obs.NewTracer(obs.Config{Mask: 1 << obs.CatSyscall})
		tr.Attach(r.eng, "disk0")
		iss := NewIssuer(r.disk, batchedProfile(), nil)
		if err := iss.Restore(ck); err != nil {
			t.Fatal(err)
		}
		iss.Attach(r.dend)
		var seqs []int64
		for _, rec := range tr.Merged() {
			if rec.Name == trReissue {
				seqs = append(seqs, rec.Arg)
			}
		}
		if len(seqs) != 8 {
			t.Fatalf("run %d: %d reissues, want 8", run, len(seqs))
		}
		for j, s := range seqs {
			if s != int64(j+1) {
				t.Fatalf("run %d: reissue order %v, want 1..8", run, seqs)
			}
		}
	}
}

// A rejected checkpoint leaves the issuer exactly as it was: no sequence
// change, no pending entry, no credit held.
func TestRestoreRejectsAtomically(t *testing.T) {
	full := pendingCheckpoint(t, 3)
	head, entries := ckptEntries(full)
	if len(entries) != 3 {
		t.Fatalf("checkpoint holds %d entries, want 3", len(entries))
	}
	five := pendingCheckpoint(t, 5)
	empty := restoreIssuer().Checkpoint()
	cases := map[string][]byte{
		"truncated second entry": full[:13+len(entries[0])+10],
		"truncated second wire":  full[:13+len(entries[0])+ckptEntryHeader+3],
		"duplicate id":           joinCkpt(head, entries[0], entries[0]),
		"descending ids":         joinCkpt(head, entries[1], entries[0]),
		"trailing bytes":         append(append([]byte(nil), full...), 0),
		"over credit limit":      five,
		"id past next sequence":  joinCkpt(empty, entries[0]),
	}
	for op := 1; op < len(removedOps); op++ {
		e := removedOpEntry(t, entries[1], byte(op), removedOps[op])
		cases["removed op "+removedOps[op]] = joinCkpt(head, entries[0], e, entries[2])
	}
	for name, b := range cases {
		iss := restoreIssuer()
		if err := iss.Restore(b); err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if iss.InFlight() != 0 || len(iss.pending) != 0 {
			t.Errorf("%s: rejected restore left %d in flight, %d pending", name, iss.InFlight(), len(iss.pending))
		}
		if got := iss.Checkpoint(); !bytes.Equal(got, empty) {
			t.Errorf("%s: rejected restore changed the issuer:\n  got  % x\n  want % x", name, got, empty)
		}
	}
	// The unmodified checkpoint still restores, one credit per call.
	iss := restoreIssuer()
	if err := iss.Restore(full); err != nil || iss.InFlight() != 3 {
		t.Fatalf("valid checkpoint: err %v, in flight %d", err, iss.InFlight())
	}
}

// FuzzIssuerRestore feeds arbitrary bytes to Restore: a rejected
// checkpoint must leave the issuer unchanged, and an accepted one must
// round-trip exactly, holding one credit per restored call.
func FuzzIssuerRestore(f *testing.F) {
	full := pendingCheckpoint(f, 3)
	head, entries := ckptEntries(full)
	f.Add(full)
	f.Add(restoreIssuer().Checkpoint())
	f.Add(full[:len(full)-1])
	f.Add(joinCkpt(head, entries[0], entries[0]))
	f.Add(pendingCheckpoint(f, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		iss := restoreIssuer()
		if err := iss.Restore(data); err != nil {
			if iss.InFlight() != 0 || len(iss.pending) != 0 || iss.nextSeq != 1 {
				t.Fatalf("rejected restore (%v) changed the issuer: %d in flight, %d pending, next seq %d",
					err, iss.InFlight(), len(iss.pending), iss.nextSeq)
			}
			return
		}
		if iss.InFlight() != len(iss.pending) {
			t.Fatalf("accepted restore holds %d credits for %d pending calls", iss.InFlight(), len(iss.pending))
		}
		if got := iss.Checkpoint(); !bytes.Equal(got, data) {
			t.Fatalf("accepted checkpoint does not round-trip:\n  in  % x\n  out % x", data, got)
		}
	})
}
