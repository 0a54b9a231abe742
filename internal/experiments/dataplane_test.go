package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hydra/internal/flowtable"
	"hydra/internal/obs"
)

// TestDataPlaneTraceDeterminism is the X12 determinism regression: at
// every host count of the grid, the same loadgen seed must produce a
// bit-identical row AND a bit-identical merged flow trace on one window
// worker and on four (any count above one runs every engine's window on
// its own goroutine). Runs under -race in CI.
func TestDataPlaneTraceDeterminism(t *testing.T) {
	for _, hosts := range X12HostGrid {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) { dataPlaneTraceDeterminism(t, hosts) })
	}
}

func dataPlaneTraceDeterminism(t *testing.T, hosts int) {
	run := func(workers int) (*X12Row, []obs.Record) {
		row, tr, err := RunX12Cell(DefaultSeed, hosts, workers, &obs.Config{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if tr == nil {
			t.Fatal("traced run returned no tracer")
		}
		if n := tr.Dropped(); n != 0 {
			t.Fatalf("workers=%d: ring overflowed: %d records dropped", workers, n)
		}
		return row, tr.Merged()
	}
	serialRow, serial := run(1)
	parallelRow, parallel := run(4)
	requireSame(t, "rows on 1 vs 4 workers", serialRow, parallelRow)
	requireSame(t, "traces on 1 vs 4 workers", serial, parallel)
	if serialRow.GenDigest == 0 {
		t.Fatal("generator digest empty")
	}

	// The flow-event trace surface must reconcile with the table ledgers,
	// and a multi-host cell's trace must show its bridge traffic.
	counts := map[string]uint64{}
	var hops int
	for _, rec := range serial {
		if rec.Cat == obs.CatFlow {
			counts[rec.Name]++
		}
		if rec.Name == "bridge.rx" {
			hops++
		}
	}
	if len(counts) == 0 {
		t.Fatal("no CatFlow records in the trace")
	}
	if hosts > 1 && hops == 0 {
		t.Error("no bridge.rx records in a multi-host trace")
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"flow.hit", serialRow.Hits},
		{"flow.miss", serialRow.Misses},
		{"flow.insert", serialRow.Inserts},
		{"flow.evict", serialRow.Evicted},
		{"flow.expire", serialRow.Expired},
		{"flow.drop", serialRow.PolicyDrops},
	} {
		if counts[c.name] != c.want {
			t.Errorf("%s records = %d, table stats say %d", c.name, counts[c.name], c.want)
		}
	}
}

// TestDataPlaneLogLedger is the PR 9 follow-on regression: NIC pipelines
// log drops/evictions/expirations as log lines through the syscall plane
// under load, and the hosts' VFS log-line ledger must reconcile exactly
// against the flow-table counters — no event unlogged, none doubled.
func TestDataPlaneLogLedger(t *testing.T) {
	row, _, err := RunX12Cell(DefaultSeed, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row.Offered == 0 || row.Offered != row.Processed+row.QueueDrops {
		t.Fatalf("conservation broken: offered %d, processed %d, queue drops %d",
			row.Offered, row.Processed, row.QueueDrops)
	}
	if row.Misrouted != 0 {
		t.Fatalf("%d packets hashed to the wrong shard", row.Misrouted)
	}
	want := row.PolicyDrops + row.Evicted + row.Expired
	if want == 0 {
		t.Fatal("no loggable events — the scenario exercised nothing")
	}
	if row.Logged != want {
		t.Fatalf("shards issued %d log syscalls for %d events", row.Logged, want)
	}
	if row.LogLines != want {
		t.Fatalf("host ledger holds %d lines for %d events (not exactly-once)", row.LogLines, want)
	}
	if row.Lookups != row.Hits+row.Misses {
		t.Fatalf("table ledger: %d lookups != %d hits + %d misses",
			row.Lookups, row.Hits, row.Misses)
	}
	if row.Processed != row.Forwarded+row.Rewritten+row.Counted+row.PolicyDrops {
		t.Fatalf("verdict ledger: %d processed != %d+%d+%d+%d",
			row.Processed, row.Forwarded, row.Rewritten, row.Counted, row.PolicyDrops)
	}
	if row.HitRate < 0.95 {
		t.Fatalf("hit rate %.4f under churn (want ≥0.95)", row.HitRate)
	}
}

// TestDataPlaneSoak runs flow churn at peak rate across an App.Replace
// hot-swap of one busy shard: zero lost or duplicated packets, and the
// exactly-once guarantee extends to flow-table state (checkpoint digest
// continuity across the swap).
func TestDataPlaneSoak(t *testing.T) {
	serial, err := RunX12Soak(DefaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunX12Soak(DefaultSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "soak on 1 vs 4 workers", serial, parallel)
	s := serial
	if s.Offered == 0 || s.Shed != 0 || s.Lost != 0 || s.Misrouted != 0 {
		t.Fatalf("packet conservation violated: %+v", s)
	}
	if s.SwapWindowMS <= 0 || s.SwapReplayed < 1 {
		t.Fatalf("swap saw no live traffic: window %.3f ms, %d replayed",
			s.SwapWindowMS, s.SwapReplayed)
	}
	if s.CkptDigest == 0 || s.CkptDigest != s.RestoreDigest {
		t.Fatalf("flow-table state diverged across the swap: %x vs %x",
			s.CkptDigest, s.RestoreDigest)
	}
	if s.Evicted == 0 {
		t.Fatal("tight quota never evicted — churn pressure missing")
	}
	if s.PostSwapProcessed == 0 {
		t.Fatal("replacement shard never processed a packet")
	}
	want := s.PolicyDrops + s.Evicted + s.Expired
	if s.Logged != want || s.LogLines != want {
		t.Fatalf("log ledger %d issued / %d host lines for %d events",
			s.Logged, s.LogLines, want)
	}
}

// restoreFixture returns the checkpoint of a shard with a non-empty
// pipeline, queue and counters, and a fresh shard to restore into.
func restoreFixture() (ck []byte, dst *x12Shard) {
	cell := &x12Cell{pipeCfg: flowtable.PipelineConfig{
		Table: x12TableConfig(), Rules: x12Rules(), Default: flowtable.ActForward, Backends: 8}}
	src := &x12Shard{cell: cell, pipe: flowtable.NewPipeline(cell.pipeCfg, nil), processed: 5}
	src.pipe.Process(flowtable.Key{SrcIP: 1, DstPort: 80, Proto: 6}, 0)
	src.queue = []x12Packet{{key: flowtable.Key{SrcIP: 2, DstPort: 443, Proto: 6}, seq: 9}}
	return src.Checkpoint(), &x12Shard{cell: cell, pipe: flowtable.NewPipeline(cell.pipeCfg, nil), processed: 1}
}

// restoreAtomically restores b into s and checks the all-or-nothing
// contract: an accepted checkpoint re-checkpoints byte-identically, and
// a rejected one leaves the pipeline digest, queue and counters as they
// were. It returns Restore's error.
func restoreAtomically(t *testing.T, s *x12Shard, b []byte) error {
	t.Helper()
	counts := func() (out []uint64) {
		for _, p := range s.counters() {
			out = append(out, *p)
		}
		return out
	}
	digest, queue, before := s.pipe.Digest(), slices.Clone(s.queue), counts()
	err := s.Restore(b)
	if err == nil {
		if got := s.Checkpoint(); !bytes.Equal(got, b) {
			t.Fatalf("accepted %d-byte checkpoint re-checkpoints as %d different bytes", len(b), len(got))
		}
		return nil
	}
	if s.pipe.Digest() != digest || !slices.Equal(s.queue, queue) || !slices.Equal(counts(), before) {
		t.Fatalf("rejected checkpoint (%v) changed the shard: digest %x (was %x), queue %d (was %d), counters %v (were %v)",
			err, s.pipe.Digest(), digest, len(s.queue), len(queue), counts(), before)
	}
	return err
}

// TestShardRestoreRejectsAtomically: a shard checkpoint whose pipeline
// part is intact but whose tail is malformed must be rejected before any
// state changes, while the intact checkpoint still restores bit-exactly.
func TestShardRestoreRejectsAtomically(t *testing.T) {
	ck, dst := restoreFixture()
	if restoreAtomically(t, dst, ck[:len(ck)-1]) == nil {
		t.Fatal("truncated shard checkpoint accepted")
	}
	if err := restoreAtomically(t, dst, ck); err != nil {
		t.Fatal(err)
	}
}

// FuzzShardRestore: any input either restores and re-checkpoints
// byte-identically, or is rejected with the shard unchanged. The corpus
// under testdata/fuzz seeds it with the fixture's checkpoint, truncated
// and corrupted forms of it.
func FuzzShardRestore(f *testing.F) {
	ck, _ := restoreFixture()
	f.Add(ck)
	f.Fuzz(func(t *testing.T, b []byte) {
		_, dst := restoreFixture()
		restoreAtomically(t, dst, b)
	})
}
