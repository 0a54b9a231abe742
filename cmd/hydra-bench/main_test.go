package main

import (
	"sort"
	"strings"
	"testing"
)

func rep(scenarios map[string]map[string]float64) *report {
	r := &report{}
	for name, m := range scenarios {
		r.Scenarios = append(r.Scenarios, scenarioResult{Name: name, Metrics: m})
	}
	// Map order would otherwise shuffle the scenarios run to run.
	sort.Slice(r.Scenarios, func(i, j int) bool { return r.Scenarios[i].Name > r.Scenarios[j].Name })
	return r
}

func TestCompareBaselineFloorBelowBandFails(t *testing.T) {
	base := rep(map[string]map[string]float64{"engine": {"a_events_per_sec": 100}})
	_, reg, err := compareBaseline(rep(map[string]map[string]float64{"engine": {"a_events_per_sec": 79}}), base)
	if err != nil || len(reg) != 1 || !strings.HasPrefix(reg[0], "engine/a_events_per_sec:") {
		t.Fatalf("0.79x events/s: regressions %q, err %v", reg, err)
	}
	_, reg, err = compareBaseline(rep(map[string]map[string]float64{"engine": {"a_events_per_sec": 81}}), base)
	if err != nil || len(reg) != 0 {
		t.Fatalf("0.81x events/s is inside the band: regressions %q, err %v", reg, err)
	}
}

func TestCompareBaselineDeterministicMetricsExact(t *testing.T) {
	base := rep(map[string]map[string]float64{
		"x7":  {"a_cycles_per_msg": 100, "b_msgs_per_sec": 100, "c_p99_lat_us": 5},
		"x10": {"soak_swap_window_ms": 2, "auto_lost": 0},
	})
	cur := rep(map[string]map[string]float64{
		"x7":  {"a_cycles_per_msg": 100.5, "b_msgs_per_sec": 101, "c_p99_lat_us": 4},
		"x10": {"soak_swap_window_ms": 2, "auto_lost": 3},
	})
	compared, reg, err := compareBaseline(cur, base)
	if err != nil || len(compared) != 5 {
		t.Fatalf("compared %q, err %v", compared, err)
	}
	// Any change, better or worse and from a zero baseline too, fails.
	want := []string{"x10/auto_lost:", "x7/a_cycles_per_msg:", "x7/b_msgs_per_sec:", "x7/c_p99_lat_us:"}
	if len(reg) != len(want) {
		t.Fatalf("regressions %q, want %q", reg, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(reg[i], w) {
			t.Fatalf("regression %d = %q, want prefix %q", i, reg[i], w)
		}
	}
}

// Keys on one side only, and the host-dependent keys, are not compared.
func TestCompareBaselineIgnoresOneSidedKeys(t *testing.T) {
	base := rep(map[string]map[string]float64{
		"x9":  {"a_msgs_per_sec": 100, "gone_msgs_per_sec": 100},
		"old": {"b_msgs_per_sec": 100},
		"x12": {"serial_ms": 10, "parallel_ms": 10, "speedup": 1, "workers": 2, "chain_allocs_per_event": 0},
	})
	cur := rep(map[string]map[string]float64{
		"x9":  {"a_msgs_per_sec": 100, "new_msgs_per_sec": 1, "total_msgs": 5},
		"new": {"b_msgs_per_sec": 1},
		"x12": {"serial_ms": 20, "parallel_ms": 5, "speedup": 4, "workers": 8, "chain_allocs_per_event": 1},
	})
	compared, reg, err := compareBaseline(cur, base)
	if err != nil || len(reg) != 0 {
		t.Fatalf("regressions %q, err %v", reg, err)
	}
	if len(compared) != 1 || !strings.HasPrefix(compared[0], "x9/a_msgs_per_sec:") {
		t.Fatalf("compared %q, want only x9/a_msgs_per_sec", compared)
	}
}

func TestCompareBaselineNothingComparableIsAnError(t *testing.T) {
	base := rep(map[string]map[string]float64{"x9": {"speedup": 2}})
	if _, _, err := compareBaseline(rep(map[string]map[string]float64{"x9": {"speedup": 2}}), base); err == nil {
		t.Fatal("no gated metric in common, but no error")
	}
	if _, _, err := compareBaseline(rep(nil), base); err == nil {
		t.Fatal("empty run, but no error")
	}
}

func TestCompareBaselineRegressionsSorted(t *testing.T) {
	slow := map[string]float64{"b_events_per_sec": 1, "a_msgs_per_sec": 1, "c_p99_lat_us": 9}
	base := map[string]float64{"b_events_per_sec": 10, "a_msgs_per_sec": 10, "c_p99_lat_us": 1}
	_, reg, err := compareBaseline(
		rep(map[string]map[string]float64{"x9": slow, "x12": slow, "engine": slow}),
		rep(map[string]map[string]float64{"x9": base, "x12": base, "engine": base}))
	if err != nil || len(reg) != 9 {
		t.Fatalf("want 9 regressions: %q, err %v", reg, err)
	}
	if !sort.StringsAreSorted(reg) {
		t.Fatalf("regressions not sorted:\n  %s", strings.Join(reg, "\n  "))
	}
}

func TestScenarioSelection(t *testing.T) {
	got, err := selectScenarios("x9, x12")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range got {
		names = append(names, s.name)
	}
	if strings.Join(names, ",") != "x9-cluster,x12-dataplane,x9-parallel" {
		t.Fatalf("x9,x12 selected %v", names)
	}
	if _, err := selectScenarios("x9,nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown scenario not reported: %v", err)
	}
	tr, err := parseTraces("x7=a.json,x12-dataplane=b.json")
	if err != nil || len(tr) != 2 || tr[0].sc.name != "x7-saturation" || tr[1].path != "b.json" {
		t.Fatalf("parseTraces: %+v, %v", tr, err)
	}
	for _, bad := range []string{"x9=a.json", "x7", "x7="} {
		if _, err := parseTraces(bad); err == nil {
			t.Fatalf("-trace %q accepted", bad)
		}
	}
}
