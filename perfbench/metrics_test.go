package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, err := quantile(xs, 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with exactly 10 beyond", v, err)
	}
	if _, err := quantile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := quantile(xs[:1], 0.5); err != nil || v != 1 {
		t.Fatalf("median of one sample = %v, %v", v, err)
	}
	if v := median([]float64{3, 1, 2, 4}); v != 2 {
		t.Fatalf("nearest-rank median of 1..4 = %v, want 2", v)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples must fail")
	}
}

func TestPerUnit(t *testing.T) {
	if v, err := perUnit(3e9, 1500); err != nil || v != 2e6 {
		t.Fatalf("perUnit(3e9, 1500) = %v, %v", v, err)
	}
	if _, err := perUnit(1, 0); err == nil {
		t.Fatal("normalising by zero units must fail")
	}
}

func TestMetricNamesMatchContractAndBenchmarkFile(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "λ", string(make([]byte, 65))} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"units_per_s", "runtime.gc.cpu_ns_per_unit", "9a-b.c_d"} {
		if !nameRE.MatchString(good) {
			t.Errorf("name %q refused", good)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, emitted []struct{ name, unit string }) {
		if len(listed) != len(emitted) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(emitted))
		}
		for i, e := range emitted {
			if !nameRE.MatchString(e.name) || !unitRE.MatchString(e.unit) {
				t.Errorf("%s: %q (%q) outside the charset", kind, e.name, e.unit)
			}
			if listed[i].Name != e.name || listed[i].Unit != e.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, e.name, e.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayerNames())
}
