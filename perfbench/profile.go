package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// foldProfile sums each sample of a pprof CPU profile file onto one
// layer, reading the samples from `go tool pprof -traces`, the text form
// of the profile that ships with the Go toolchain the benchmark is built
// with.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(string(out))
}

// traceSep separates the samples in `pprof -traces` output. Each sample's
// first line is its value and leaf frame; the following lines are its
// callers, one frame a line, inlined frames innermost first.
const traceSep = "-----------+-------------------------------------------------------"

// foldTraces folds `pprof -traces -unit=ns` output. A sample lands on the
// first frame, counted from the leaf, that is either a hydra/internal
// frame or a harness frame (package main, named hydra/perfbench in its
// test binary). A hydra frame names its layer, so allocation, memmove and
// GC assist time land on the layer that caused them. A harness frame
// lands on bench, so the glue the layers call back into is charged to
// the harness and not to the layer that called it. A sample with neither
// lands on runtime.gc.
func foldTraces(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	_, body, _ := strings.Cut(text, traceSep+"\n")
	for _, sample := range strings.Split(body, traceSep+"\n") {
		lines := strings.Split(strings.TrimSpace(sample), "\n")
		f := strings.Fields(lines[0])
		if len(f) == 0 {
			continue // after the last sample
		}
		if len(f) < 2 || !strings.HasSuffix(f[0], "ns") {
			return nil, fmt.Errorf("profile sample starts %q", lines[0])
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("profile sample value: %w", err)
		}
		layer := layerOf(f[1])
		for _, l := range lines[1:] {
			if layer != "" {
				break
			}
			layer = layerOf(strings.TrimSpace(l))
		}
		if layer == "" {
			layer = "runtime.gc"
		}
		out[layer] += ns
	}
	return out, nil
}

// layerOf names the row a frame decides, or "" for a frame that does not
// decide (the runtime, the standard library).
func layerOf(fn string) string {
	if pkg, ok := strings.CutPrefix(fn, "hydra/internal/"); ok {
		pkg = pkg[:strings.IndexAny(pkg+".", "./")]
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "hydra/perfbench.") {
		return "bench"
	}
	return ""
}

// writeTemp writes data to a new file beside the running binary, inside
// the build directory, and returns its path.
func writeTemp(data []byte, pattern string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp(filepath.Dir(self), pattern)
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return f.Name(), err
}
