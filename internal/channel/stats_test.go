package channel

// Reflection-based audits of the Stats surface. Stats fields get added
// as features land (Batches, Undelivered, Replayed); these tests walk the
// struct so a future field can never be
// silently dropped from bridge-merged stats or from the metrics
// registry — adding a field makes them pass or fail on their own,
// with no test edit to forget.

import (
	"reflect"
	"strings"
	"testing"

	"hydra/internal/obs"
)

func TestStatsAddMergesEveryField(t *testing.T) {
	var a, b Stats
	rb := reflect.ValueOf(&b).Elem()
	for i := 0; i < rb.NumField(); i++ {
		f := rb.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("Stats field %s is %s; extend this test for non-uint64 fields",
				rb.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(uint64(i + 1))
	}

	a.Add(b)
	a.Add(b)
	ra := reflect.ValueOf(a)
	for i := 0; i < ra.NumField(); i++ {
		want := 2 * uint64(i+1)
		if got := ra.Field(i).Uint(); got != want {
			t.Errorf("Stats.Add drops field %s: got %d, want %d",
				ra.Type().Field(i).Name, got, want)
		}
	}
}

func TestStatsPublishCoversEveryField(t *testing.T) {
	var s Stats
	rv := reflect.ValueOf(&s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetUint(uint64(i + 10))
	}
	r := obs.NewRegistry()
	obs.PublishStats(r, "chan", s)
	snap := r.Snapshot()
	if got, want := len(snap.Values), rv.NumField(); got != want {
		t.Fatalf("published %d metrics, want %d (one per Stats field)", got, want)
	}
	// Each field carries a distinct value, so every value showing up once
	// under the prefix means every field was published.
	seen := map[float64]bool{}
	for _, mv := range snap.Values {
		if !strings.HasPrefix(mv.Name, "chan.") {
			t.Errorf("metric %q outside the chan. prefix", mv.Name)
		}
		seen[mv.Value] = true
	}
	for i := 0; i < rv.NumField(); i++ {
		if !seen[float64(i+10)] {
			t.Errorf("field %s missing from registry", rv.Type().Field(i).Name)
		}
	}
}

// TestSnakeCase pins the metric names channel stats publish under.
func TestSnakeCase(t *testing.T) {
	r := obs.NewRegistry()
	obs.PublishStats(r, "chan", Stats{})
	snap := r.Snapshot()
	names := map[string]bool{}
	for _, mv := range snap.Values {
		names[mv.Name] = true
	}
	for _, name := range []string{"chan.sent", "chan.coalesce_flushes", "chan.undelivered", "chan.replayed"} {
		if !names[name] {
			t.Errorf("no metric %q among %v", name, snap.Values)
		}
	}
}
