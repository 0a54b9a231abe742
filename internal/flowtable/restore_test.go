package flowtable

import (
	"bytes"
	"testing"

	"hydra/internal/sim"
)

// restoreTable is the fixed table every restore test and fuzz iteration
// restores into: capacity 8, holding three flows.
func restoreTable() *Table {
	t := New(Config{QuotaBytes: 8 * EntryBytes, IdleTimeout: sim.Second}, nil)
	for i := 0; i < 3; i++ {
		t.Insert(Key{SrcIP: uint32(i + 1), DstPort: 80, Proto: 6}, ActForward, uint16(i), sim.Time(i))
	}
	t.Lookup(Key{SrcIP: 1, DstPort: 80, Proto: 6}, 5)
	return t
}

// restorePipeline is the fixed pipeline the pipeline fuzz target restores
// into, with traffic through every verdict.
func restorePipeline() *Pipeline {
	p := NewPipeline(PipelineConfig{
		Table:    Config{QuotaBytes: 8 * EntryBytes, IdleTimeout: sim.Second},
		Rules:    []Rule{{Match: Match{DstPort: 23}, Action: ActDrop}, {Match: Match{DstPort: 53}, Action: ActCount}},
		Default:  ActRewrite,
		Backends: 4,
	}, nil)
	for i, port := range []uint16{23, 53, 80, 80, 443} {
		p.Process(Key{SrcIP: uint32(i), DstPort: port, Proto: 6}, sim.Time(i))
	}
	return p
}

// repeatKey turns a checkpoint of two or more entries into one whose
// second entry repeats the first entry's key.
func repeatKey(ck []byte) []byte {
	out := append([]byte(nil), ck...)
	copy(out[4+ckptEntryBytes:], out[4:4+KeyBytes])
	return out
}

// TestRestoreRejectsAtomically: a checkpoint that fails validation part
// way through its entries must leave the table — and the pipeline's
// verdict counters — exactly as they were.
func TestRestoreRejectsAtomically(t *testing.T) {
	src := New(Config{QuotaBytes: 8 * EntryBytes}, nil)
	src.Insert(Key{SrcIP: 7, DstPort: 80, Proto: 6}, ActDrop, 0, 0)
	src.Insert(Key{SrcIP: 8, DstPort: 80, Proto: 6}, ActDrop, 0, 0)
	bad := repeatKey(src.Checkpoint())

	tab := New(Config{QuotaBytes: 8 * EntryBytes}, nil)
	tab.Insert(Key{SrcIP: 1, DstPort: 443, Proto: 6}, ActForward, 0, 0)
	before, n := string(tab.Checkpoint()), tab.Len()
	if err := tab.Restore(bad); err == nil {
		t.Fatal("checkpoint with a repeated key accepted")
	}
	if string(tab.Checkpoint()) != before || tab.Len() != n {
		t.Fatalf("failed restore changed the table: len %d (was %d)", tab.Len(), n)
	}

	p := restorePipeline()
	ck := p.Checkpoint()
	// Valid verdict counters in front of the bad table part.
	badPipe := append(append([]byte(nil), ck[:4*8]...), bad...)
	badPipe[0]++
	pipeBefore := p.Digest()
	if err := p.Restore(badPipe); err == nil {
		t.Fatal("pipeline checkpoint with a repeated key accepted")
	}
	if p.Digest() != pipeBefore {
		t.Fatal("failed pipeline restore changed the verdict counters or table")
	}
}

// FuzzTableRestore feeds arbitrary bytes to Table.Restore: an error must
// leave the table untouched, and an accepted checkpoint must round-trip
// through Checkpoint byte for byte.
func FuzzTableRestore(f *testing.F) {
	full := restoreTable().Checkpoint()
	f.Add(full)
	f.Add(New(Config{QuotaBytes: EntryBytes}, nil).Checkpoint())
	f.Add(repeatKey(full))
	f.Add(full[:len(full)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := restoreTable()
		before := string(tab.Checkpoint())
		if err := tab.Restore(data); err != nil {
			if string(tab.Checkpoint()) != before {
				t.Fatalf("rejected restore (%v) changed the table", err)
			}
			return
		}
		if got := tab.Checkpoint(); !bytes.Equal(got, data) {
			t.Fatalf("accepted checkpoint does not round-trip:\n  in  % x\n  out % x", data, got)
		}
	})
}

// FuzzPipelineRestore is FuzzTableRestore for the pipeline: verdict
// counters plus table, atomic on error, exact on success.
func FuzzPipelineRestore(f *testing.F) {
	full := restorePipeline().Checkpoint()
	f.Add(full)
	f.Add(full[:4*8])
	f.Add(append(append([]byte(nil), full[:4*8]...), repeatKey(full[4*8:])...))
	f.Add(full[:len(full)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		p := restorePipeline()
		before := p.Digest()
		if err := p.Restore(data); err != nil {
			if p.Digest() != before {
				t.Fatalf("rejected restore (%v) changed the pipeline", err)
			}
			return
		}
		if got := p.Checkpoint(); !bytes.Equal(got, data) {
			t.Fatalf("accepted checkpoint does not round-trip:\n  in  % x\n  out % x", data, got)
		}
	})
}
