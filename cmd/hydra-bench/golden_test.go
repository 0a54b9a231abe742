package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hydra/internal/experiments"
)

// goldenBench is the archived -quick -json report whose deterministic
// metrics every run must reproduce exactly.
const goldenBench = "../../BENCH_0013.json"

// goldenTraces lists the SHA-256 of each -trace file, one
// "hash  name.json" line per traced scenario (sha256sum's format).
const goldenTraces = "testdata/traces.sha256"

// TestGoldenBehaviour is the behaviour check for refactors. It runs every
// scenario in-process with the -quick options and the default seed, so
// each scenario's shape gate runs too, and requires each deterministic
// metric (gatedExactly) to equal the golden report's, in both directions:
// a key or scenario only one side has fails too, and so does an empty
// rendered table. Host-time metrics, the *_events_per_sec floor included, are not
// compared here. It then writes the x7, x11 and x12 trace cells and
// requires each file's SHA-256 to match testdata/traces.sha256.
func TestGoldenBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario; skipped under -short")
	}
	base, err := readReport(goldenBench)
	if err != nil {
		t.Fatal(err)
	}
	o := newOpts(experiments.DefaultSeed, true)
	if base.Seed != o.seed || base.SimSeconds != o.duration.Float64Seconds() {
		t.Fatalf("%s was run with seed %d for %v s, want the -quick defaults (seed %d, %v s)",
			goldenBench, base.Seed, base.SimSeconds, o.seed, o.duration.Float64Seconds())
	}
	want := map[string]metrics{}
	for _, s := range base.Scenarios {
		want[s.Name] = s.Metrics
	}
	var diffs []string
	compared := 0
	for _, sc := range scenarios {
		got, rendered, err := sc.run(o)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if rendered == "" {
			diffs = append(diffs, sc.name+": rendered an empty table")
		}
		bm, ok := want[sc.name]
		if !ok {
			diffs = append(diffs, sc.name+": not in the golden report")
			continue
		}
		delete(want, sc.name)
		for key, g := range got {
			w, ok := bm[key]
			switch {
			case !gatedExactly(key):
			case !ok:
				diffs = append(diffs, fmt.Sprintf("%s/%s: %v, not in the golden report", sc.name, key, g))
			case g != w:
				diffs = append(diffs, fmt.Sprintf("%s/%s: %v, golden %v", sc.name, key, g, w))
			default:
				compared++
			}
		}
		for key, w := range bm {
			if _, ok := got[key]; !ok && gatedExactly(key) {
				diffs = append(diffs, fmt.Sprintf("%s/%s: missing, golden %v", sc.name, key, w))
			}
		}
	}
	for name := range want {
		diffs = append(diffs, name+": in the golden report but not run")
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Errorf("%d of the deterministic metrics differ from %s:\n  %s",
			len(diffs), goldenBench, strings.Join(diffs, "\n  "))
	}
	t.Logf("%d deterministic metrics equal %s", compared, goldenBench)

	hashes, err := readHashes(goldenTraces)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var pairs []string
	for _, file := range sortedKeys(hashes) {
		pairs = append(pairs, strings.TrimSuffix(file, ".json")+"="+filepath.Join(dir, file))
	}
	targets, err := parseTraces(strings.Join(pairs, ","))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range targets {
		if err := writeTrace(tt.sc, tt.path, o.seed, false); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(tt.path)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Base(tt.path)
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != hashes[file] {
			t.Errorf("%s trace %s: SHA-256 %s, golden %s", tt.sc.name, file, got, hashes[file])
		}
	}
}

// readHashes parses a sha256sum listing into file → hex digest.
func readHashes(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		hash, file, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(hash) != 2*sha256.Size {
			return nil, fmt.Errorf("%s: bad line %q", path, sc.Text())
		}
		out[file] = hash
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no hashes", path)
	}
	return out, sc.Err()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
