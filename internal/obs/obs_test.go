package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hydra/internal/sim"
)

func TestShardRecordsAndMerge(t *testing.T) {
	tr := NewTracer(Config{Mask: MaskAll, Cap: 8})
	e1 := sim.NewEngine(1)
	e2 := sim.NewEngine(2)
	s1 := tr.Attach(e1, "h0")
	s2 := tr.Attach(e2, "h1")

	e1.Schedule(10, func() { s1.Instant(CatChannel, "a", 1) })
	e1.Schedule(20, func() { s1.Complete(CatBus, "x", 5, 15, 2) })
	e2.Schedule(10, func() { s2.Instant(CatHost, "b", 3) })
	e1.RunAll()
	e2.RunAll()

	m := tr.Merged()
	if len(m) != 3 {
		t.Fatalf("merged %d records, want 3", len(m))
	}
	// (At, shard, seq) order: bus span at 5, then the two instants at 10
	// with shard 0 before shard 1.
	want := []string{"x", "a", "b"}
	for i, r := range m {
		if r.Name != want[i] {
			t.Fatalf("merged[%d] = %q, want %q", i, r.Name, want[i])
		}
	}
	if m[0].Dur != 15 || m[0].Kind != KindSpan {
		t.Fatalf("span record wrong: %+v", m[0])
	}
}

func TestShardRingDropsOldest(t *testing.T) {
	tr := NewTracer(Config{Mask: MaskAll, Cap: 4})
	e := sim.NewEngine(1)
	s := tr.Attach(e, "h")
	for i := 0; i < 10; i++ {
		s.Instant(CatApp, "i", int64(i))
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	recs := s.Records()
	if recs[0].Arg != 6 || recs[3].Arg != 9 {
		t.Fatalf("retained window wrong: %+v", recs)
	}
}

func TestNilShardIsSafeAndOff(t *testing.T) {
	var s *Shard
	if s.On() {
		t.Fatal("nil shard reports On")
	}
	s.Instant(CatApp, "x", 0)
	s.End(s.Begin(CatApp, "y", 0))
	s.Complete(CatApp, "z", 0, 1, 0)
	if s.Len() != 0 || s.Dropped() != 0 || s.Records() != nil {
		t.Fatal("nil shard retained records")
	}
}

func TestMaskFiltersCategories(t *testing.T) {
	tr := NewTracer(Config{Mask: 1 << CatBus, Cap: 8})
	e := sim.NewEngine(1)
	s := tr.Attach(e, "h")
	if ForCat(e, CatChannel) != nil {
		t.Fatal("ForCat returned shard for masked-off category")
	}
	if ForCat(e, CatBus) != s {
		t.Fatal("ForCat missed enabled category")
	}
	s.Instant(CatChannel, "off", 0)
	s.Instant(CatBus, "on", 0)
	recs := s.Records()
	if len(recs) != 1 || recs[0].Name != "on" {
		t.Fatalf("mask filtering wrong: %+v", recs)
	}
}

func TestSimProbeRecordsScheduleAndFire(t *testing.T) {
	tr := NewTracer(Config{Mask: MaskEverything, Cap: 64})
	e := sim.NewEngine(1)
	s := tr.Attach(e, "h")
	e.Schedule(5, func() {})
	e.RunAll()
	var sched, fired int
	for _, r := range s.Records() {
		switch r.Name {
		case "sim.sched":
			sched++
		case "sim.fire":
			fired++
		}
	}
	if sched != 1 || fired != 1 {
		t.Fatalf("probe recorded sched=%d fired=%d, want 1/1", sched, fired)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracer(Config{Mask: MaskAll, Cap: 16})
	e := sim.NewEngine(1)
	s := tr.Attach(e, "host0")
	e.Schedule(123, func() {
		s.Instant(CatChannel, "chan.send", 7)
		h := s.Begin(CatChannel, "chan.tx", 2)
		e.Schedule(456, func() { s.End(h) })
	})
	e.RunAll()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	// Must be valid JSON with a traceEvents array (Perfetto's loader
	// contract).
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	if _, ok := raw["traceEvents"].([]any); !ok {
		t.Fatal("no traceEvents array")
	}

	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Merged()
	if !reflect.DeepEqual(got.Records, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Records, want)
	}
	if got.Labels[0] != "host0" {
		t.Fatalf("labels = %v", got.Labels)
	}
}

func TestRegistrySnapshotDeterministicAndTyped(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Counter("b.count").Inc()
	}
	r.Gauge("a.depth").Set(4)

	s := r.Snapshot()
	if v := s.MustGet("b.count"); v != 3 {
		t.Fatalf("counter = %v", v)
	}
	if v := s.MustGet("a.depth"); v != 4 {
		t.Fatalf("gauge = %v", v)
	}
	for i := 1; i < len(s.Values); i++ {
		if s.Values[i-1].Name >= s.Values[i].Name {
			t.Fatalf("snapshot not sorted at %d: %v", i, s.Values)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("b.count")
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Sent":            "sent",
		"CoalesceFlushes": "coalesce_flushes",
		"SGWrites":        "sg_writes",
		"SGFragments":     "sg_fragments",
		"Undelivered":     "undelivered",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCaptureEngineDiag(t *testing.T) {
	r := NewRegistry()
	e := sim.NewEngine(9)
	for i := 0; i < 200; i++ {
		e.Schedule(sim.Time(i)*sim.Microsecond, func() {})
	}
	e.Run(50 * sim.Microsecond)
	CaptureEngine(r, "eng", e)
	s := r.Snapshot()
	if got := s.MustGet("eng.fired"); got != 51 {
		t.Fatalf("fired = %v, want 51", got)
	}
	if got := s.MustGet("eng.scheduled"); got != 200 {
		t.Fatalf("scheduled = %v, want 200", got)
	}
	if got := s.MustGet("eng.pending"); got != 149 {
		t.Fatalf("pending = %v, want 149", got)
	}
	// 200 pending events blow past ladderPlainMax, so the queue must
	// have converted at least once.
	if got := s.MustGet("eng.ladder_converts"); got < 1 {
		t.Fatalf("ladder_converts = %v, want >= 1", got)
	}
	live := s.MustGet("eng.slots_minted") - s.MustGet("eng.slots_free")
	if live != s.MustGet("eng.slots_live") || live < 149 {
		t.Fatalf("slot accounting wrong: live=%v snapshot=%v", live, s.MustGet("eng.slots_live"))
	}
}
