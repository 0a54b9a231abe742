// Command inject checks that the benchmark notices a slowdown in one
// function. It copies the repository to a scratch directory, adds a
// calibrated busy-wait at the top of the named function, and runs the
// benchmark with and without it (the same binary: the wait's loop count is
// read from HYDRA_INJECT_ITERS at start-up). It sizes the wait so that the
// stressing workload's time per unit grows by 10%, then runs alternating
// pairs on every workload and reports which end-to-end metrics left their
// BENCHMARK.json bounds and which per-layer CPU rows grew.
//
// Run from the benchmark's directory:
//
//	go run ./inject -func 'nfs.(*Server).handle' -workload tivopc
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The settings behind every reported result. Each run lasts the
// run_seconds of BENCHMARK.json.
const (
	targetPct = 10 // growth of the stressing workload's time per unit, percent
	pairs     = 3  // alternating baseline/injected pairs per measurement
)

type benchSpec struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

type result struct {
	Metrics map[string]struct{ Value float64 } `json:"metrics"`
}

func main() {
	fn := flag.String("func", "", "function to slow, as pkg.Func or pkg.(*Type).Method under internal/")
	stress := flag.String("workload", "", "workload the function's layer is stressed on")
	repo := flag.String("repo", "..", "repository root to copy")
	work := flag.String("work", "", "scratch directory for the copy (default: a new temp dir)")
	flag.Parse()
	if err := run(*fn, *stress, *repo, *work); err != nil {
		fmt.Fprintln(os.Stderr, "inject:", err)
		os.Exit(1)
	}
}

func run(fn, stress, repo, work string) error {
	if fn == "" || stress == "" {
		return errors.New("-func and -workload are required")
	}
	if work == "" {
		var err error
		if work, err = os.MkdirTemp("", "perfbench-inject-"); err != nil {
			return err
		}
	}
	if err := copyTree(repo, work); err != nil {
		return err
	}
	if err := addSpin(work, fn); err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(work, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	b := &bench{dir: work, seconds: spec.RunSeconds, nsPerIter: loopNS()}

	// The first run builds the copy; a warm-up run keeps the build's
	// after-effects out of the calibration.
	if _, err := b.run(stress, 1, 0, false); err != nil {
		return err
	}

	// Calibrate: the added time per unit is linear in the wait. Grow a
	// probe, one pair a try, until it moves the throughput measurably and
	// scale it to the target. Medians over several pairs then rescale the
	// wait until it lands within a quarter of the target, which also
	// catches a probe that noise alone moved.
	const target = targetPct / 100.0
	probe, added := 1000.0, 0.0
	for try := 0; added < 0.05; try++ {
		if try == 6 {
			return fmt.Errorf("%s: even %.0f ns per call did not move %s", fn, probe, stress)
		}
		if try > 0 {
			probe *= min(100, max(2, 0.3/max(added, 0.003)))
		}
		if added, err = b.added(stress, probe, 1); err != nil {
			return err
		}
		fmt.Printf("probe: %.0f ns per call adds %.1f%% time per unit on %s\n", probe, 100*added, stress)
	}
	waitNS := probe * target / added
	for try := 0; ; try++ {
		if added, err = b.added(stress, waitNS, pairs); err != nil {
			return err
		}
		fmt.Printf("calibration: %.0f ns per call adds %.1f%% time per unit on %s (median of %d pairs)\n",
			waitNS, 100*added, stress, pairs)
		if math.Abs(added-target) <= target/4 {
			break
		}
		if try == 3 {
			return fmt.Errorf("%s: the wait did not settle near %d%% on %s", fn, targetPct, stress)
		}
		waitNS *= min(20, target/max(added, 0.005))
	}
	waitNS *= target / added
	fmt.Printf("wait: %.0f ns (%d loop iterations) per call of %s\n\n", waitNS, b.iters(waitNS), fn)

	order := []string{stress}
	for _, w := range spec.Workloads {
		if w.Name != stress {
			order = append(order, w.Name)
		}
	}
	summary := map[string]any{"func": fn, "stress": stress, "wait_ns": waitNS}
	for _, w := range order {
		base, inj := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < pairs; i++ {
			seed := int64(i + 1)
			sides := []float64{0, waitNS}
			if i%2 == 1 {
				sides = []float64{waitNS, 0}
			}
			for _, ns := range sides {
				r, err := b.run(w, seed, ns, false)
				if err != nil {
					return err
				}
				dst := base
				if ns > 0 {
					dst = inj
				}
				for k, m := range r.Metrics {
					dst[k] = append(dst[k], m.Value)
				}
			}
		}
		var left []string
		fmt.Printf("%s (%d pairs; medians, and the median of each pair's change):\n", w, pairs)
		for _, e := range spec.EndToEnd {
			var changes []float64
			for i, mb := range base[e.Name] {
				if mb != 0 {
					c := (inj[e.Name][i] - mb) / mb
					if e.Better == "higher" {
						c = -c
					}
					changes = append(changes, c)
				}
			}
			mb, mi, worse := median(base[e.Name]), median(inj[e.Name]), median(changes)
			flag := ""
			if worse > e.Bound {
				flag = "  LEFT BOUND"
				left = append(left, e.Name)
			}
			fmt.Printf("  %-22s base %12.5g  injected %12.5g  worse by %+6.1f%% (bound %.0f%%)%s\n",
				e.Name, mb, mi, 100*worse, 100*e.Bound, flag)
		}
		entry := map[string]any{"left_bound": left}
		if w == stress {
			base, slow := map[string][]float64{}, map[string][]float64{}
			for i := 0; i < pairs; i++ {
				for _, side := range []struct {
					ns  float64
					dst map[string][]float64
				}{{0, base}, {waitNS, slow}} {
					r, err := b.run(w, int64(i+1), side.ns, true)
					if err != nil {
						return err
					}
					for k, m := range r.Metrics {
						side.dst[k] = append(side.dst[k], m.Value)
					}
				}
			}
			grew := rowGrowth(base, slow)
			fmt.Printf("  per-layer CPU rows, traced (%d pairs, medians, ns per unit):\n", pairs)
			for _, g := range grew {
				fmt.Printf("    %-28s %12.1f -> %12.1f  (%+.1f)\n", g.name, g.base, g.inj, g.inj-g.base)
			}
			if len(grew) > 0 {
				entry["top_row"] = grew[0].name
			}
		}
		summary[w] = entry
		fmt.Println()
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type growth struct {
	name      string
	base, inj float64
}

// added is the growth in time per unit that a wait of waitNS per call
// causes on workload: the median over n alternating baseline/injected
// pairs.
func (b *bench) added(workload string, waitNS float64, n int) (float64, error) {
	var growth []float64
	for i := 0; i < n; i++ {
		sides := []float64{0, waitNS}
		if i%2 == 1 {
			sides = []float64{waitNS, 0}
		}
		var base, slow float64
		for _, ns := range sides {
			r, err := b.run(workload, int64(i+1), ns, false)
			if err != nil {
				return 0, err
			}
			if ns == 0 {
				base = r.Metrics["units_per_cpu_s"].Value
			} else {
				slow = r.Metrics["units_per_cpu_s"].Value
			}
		}
		growth = append(growth, base/slow-1)
	}
	return median(growth), nil
}

// rowGrowth lists the *.cpu_ns_per_unit rows whose median grew, largest
// growth first.
func rowGrowth(base, inj map[string][]float64) []growth {
	var out []growth
	for k, vs := range base {
		if b, i := median(vs), median(inj[k]); strings.HasSuffix(k, ".cpu_ns_per_unit") && i > b {
			out = append(out, growth{k, b, i})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].inj-out[i].base > out[j].inj-out[j].base })
	return out[:min(5, len(out))]
}

type bench struct {
	dir       string
	seconds   int
	nsPerIter float64 // the busy-wait loop's time per iteration on this host
}

// iters converts a wait to loop iterations. Every process of a
// measurement spins the same count, so the wait is the same work in all
// of them.
func (b *bench) iters(waitNS float64) int64 {
	if waitNS <= 0 {
		return 0
	}
	return max(1, int64(waitNS/b.nsPerIter))
}

// loopNS times the busy-wait loop, the median of five timings.
func loopNS() float64 {
	const n = 1 << 23
	var ts []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		spinLoop(n)
		ts = append(ts, float64(time.Since(t).Nanoseconds())/n)
	}
	return median(ts)
}

var spinSink uint64

// spinLoop is the loop spinSource adds to the slowed package.
//
//go:noinline
func spinLoop(n int64) {
	x := uint64(n)
	for i := int64(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 0 {
		spinSink = x
	}
}

// run executes one benchmark run in the copy with the given wait.
func (b *bench) run(workload string, seed int64, waitNS float64, trace bool) (*result, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command("python3", "perfbench/run.py", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(b.seconds), "--trace", tr)
	cmd.Dir = b.dir
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR=", "HYDRA_INJECT_ITERS="+strconv.FormatInt(b.iters(waitNS), 10))
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s result: %w", workload, err)
	}
	return &r, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// copyTree copies the repository's regular files, skipping version
// control and build output.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// addSpin inserts a call to the busy-wait as the first statement of the
// named function and adds the busy-wait to its package.
func addSpin(root, spec string) error {
	pkg, rest, ok := strings.Cut(spec, ".")
	if !ok {
		return fmt.Errorf("function %q: want pkg.Func or pkg.(*Type).Method", spec)
	}
	recv, name := "", rest
	if strings.HasPrefix(rest, "(") {
		r, n, ok := strings.Cut(rest, ").")
		if !ok {
			return fmt.Errorf("function %q: bad method form", spec)
		}
		recv, name = strings.TrimLeft(r, "(*"), n
	}
	dir := filepath.Join(root, "internal", pkg)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return err
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Body == nil || receiverName(fd) != recv {
				continue
			}
			at := fset.Position(fd.Body.Lbrace).Offset + 1
			patched := string(src[:at]) + "\n\thydraInjectSpin()\n" + string(src[at:])
			if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "hydra_inject.go"),
				[]byte(fmt.Sprintf(spinSource, f.Name.Name)), 0o644)
		}
	}
	return fmt.Errorf("function %q not found under %s", spec, dir)
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// spinSource is the injected busy-wait: HYDRA_INJECT_ITERS iterations of
// spinLoop per call.
const spinSource = `package %s

import (
	"os"
	"strconv"
)

var hydraInjectSink uint64

var hydraInjectIters, _ = strconv.ParseInt(os.Getenv("HYDRA_INJECT_ITERS"), 10, 64)

//go:noinline
func hydraInjectLoop(n int64) {
	x := uint64(n)
	for i := int64(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 0 {
		hydraInjectSink = x
	}
}

func hydraInjectSpin() {
	if hydraInjectIters > 0 {
		hydraInjectLoop(hydraInjectIters)
	}
}
`
