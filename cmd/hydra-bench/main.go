// Command hydra-bench regenerates every table and figure from the paper's
// evaluation plus the repository's ablations, printing each next to the
// published numbers. This is the EXPERIMENTS.md generator.
//
// Every scenario is one entry of a table: it runs, gates its qualitative
// shape, and flattens into a sorted metric map. With -json the tool emits
// a machine-readable report — per-scenario metrics plus wall-clock — so
// successive runs can be archived (BENCH_*.json) and compared to track
// the perf trajectory.
//
// -scenario runs selected entries, comma-separated. A name selects the
// scenario of that name, or every scenario whose name starts with it
// followed by '-' (x12 is x12-dataplane; x9 is x9-cluster plus
// x9-parallel; table2 is table2-figure9 plus table2-jitter-sweep).
//
// The windowed and pooled scenarios carry the determinism contract: x9,
// x10, x11, x12 and the jitter sweep run each cell serially and again on
// max(2, GOMAXPROCS) goroutines and fail unless both runs agree bit for bit
// (experiments.RunTwin). The jitter sweep replays Table 2 across 8 seeds
// (4 with -quick); only its wall clocks differ between the two runs.
//
// -baseline compares the run against an archived BENCH_*.json and fails
// on a regression: every deterministic metric the two share must be equal
// (a seed fixes the virtual-clock results), and the engine's
// *_events_per_sec must stay above 0.8× the baseline. Allocations per
// event and the twin runs' serial_ms, parallel_ms, speedup and workers
// depend on the host and are not compared. The comparison is recorded in
// the report.
//
// -trace name=path[,name=path] runs one traced cell of each named
// scenario (x7, x11 or x12) and writes its merged recorder stream as
// Chrome trace-event JSON (Perfetto-loadable), failing unless the trace
// records reconcile with the cell's own ledgers: per-message channel
// stats for x7, per-call syscall stats for x11, per-packet flow-table
// counters for x12. cmd/hydra-trace
// summarizes any of the files.
//
// Usage:
//
//	hydra-bench [-quick] [-seed N] [-json] [-scenario a,b,...] [-baseline file] [-trace name=path,...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"hydra/internal/experiments"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/tivopc"
)

type scenarioResult struct {
	Name    string             `json:"name"`
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Seed       int64            `json:"seed"`
	SimSeconds float64          `json:"sim_seconds"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Scenarios  []scenarioResult `json:"scenarios"`
	Baseline   *baselineResult  `json:"baseline,omitempty"`
}

// baselineResult records a -baseline comparison: one line per compared
// metric and the regressions, each sorted.
type baselineResult struct {
	Path        string   `json:"path"`
	Compared    []string `json:"compared"`
	Regressions []string `json:"regressions"`
}

type metrics = map[string]float64

// twinWorkers sizes the parallel side of every serial ≡ parallel check;
// 0 lets experiments.RunTwin pick max(2, GOMAXPROCS).
const twinWorkers = 0

// opts are the knobs every scenario runs under.
type opts struct {
	seed     int64
	duration sim.Time // simulated length of the sampled paper scenarios
	replicas int      // jitter-sweep seeds
}

// newOpts returns the options -seed and -quick select.
func newOpts(seed int64, quick bool) opts {
	o := opts{seed: seed, duration: experiments.DefaultDuration, replicas: 8}
	if quick {
		o.duration, o.replicas = experiments.QuickDuration, 4
	}
	return o
}

// scenario is one table entry. run executes it, gates its shape, and
// returns its flat metrics plus the rendered table. trace, when set, runs
// one representative cell with the recorder attached and returns the
// tracer, the ledgers its records must reconcile with, and a label.
type scenario struct {
	name  string
	run   func(o opts) (metrics, string, error)
	trace func(seed int64) (*obs.Tracer, []ledger, string, error)
}

// ledger is a trace record name and the count the traced cell's own
// accounting promises for it.
type ledger struct {
	name string
	want uint64
}

// matches reports whether sel names the scenario: in full, or by the
// prefix before the first '-'.
func (s *scenario) matches(sel string) bool {
	prefix, _, _ := strings.Cut(s.name, "-")
	return sel == s.name || sel == prefix
}

var scenarios = []*scenario{
	{name: "figure1", run: func(opts) (metrics, string, error) {
		f := experiments.RunFigure1()
		return metrics{"tx_points": float64(len(f.TX)), "rx_points": float64(len(f.RX))}, f.Render(), nil
	}},
	{name: "table2-figure9", run: func(o opts) (metrics, string, error) {
		jit, err := experiments.RunTable2Figure9(o.seed, o.duration)
		if err == nil {
			err = experiments.CheckJitterShape(jit)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range jit.Rows {
			m[slug(row.Scenario)+"_median_ms"] = row.Measured.Median
			m[slug(row.Scenario)+"_stddev_ms"] = row.Measured.StdDev
		}
		return m, jit.RenderTable2() + "\n" + jit.RenderFigure9(), nil
	}},
	{name: "table3-figure10", run: func(o opts) (metrics, string, error) {
		load, err := experiments.RunTable3Figure10(o.seed, o.duration)
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range load.Rows {
			m[slug(row.Scenario)+"_cpu_pct"] = row.CPU.Mean
			m[slug(row.Scenario)+"_l2_slowdown"] = row.L2Slowdown
		}
		return m, load.RenderTable3() + "\n" + load.RenderFigure10(), nil
	}},
	{name: "table4-client", run: func(o opts) (metrics, string, error) {
		cli, err := experiments.RunTable4(o.seed, o.duration)
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range cli.Rows {
			m[slug(row.Scenario)+"_cpu_pct"] = row.CPU.Mean
			m[slug(row.Scenario)+"_l2_miss_delta"] = row.MissDelta
		}
		return m, cli.RenderTable4() + "\n" + cli.RenderClientL2(), nil
	}},
	{name: "x2-layout", run: func(o opts) (metrics, string, error) {
		lay, err := experiments.RunLayoutAblation(60, o.seed)
		if err != nil {
			return nil, "", err
		}
		return metrics{"greedy_gap_frac": lay.MeanGapFrac, "ilp_nodes": lay.MeanILPNodes}, lay.Render(), nil
	}},
	{name: "x3-channel", run: func(o opts) (metrics, string, error) {
		ch, err := experiments.RunChannelAblation(8192, 256, o.seed)
		if err != nil {
			return nil, "", err
		}
		return metrics{"staged_vs_zerocopy": float64(ch.StagedTime) / float64(ch.ZeroCopyTime)}, ch.Render(), nil
	}},
	{name: "x4-loader", run: func(o opts) (metrics, string, error) {
		ld, err := experiments.RunLoaderAblation(32<<10, o.seed)
		if err != nil {
			return nil, "", err
		}
		return metrics{"devlink_vs_hostlink": float64(ld.DeviceLink) / float64(ld.HostLink)}, ld.Render(), nil
	}},
	{name: "x5-energy", run: func(o opts) (metrics, string, error) {
		en, err := experiments.RunEnergy(o.seed, o.duration)
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range en.Rows {
			m[slug(row.Scenario)+"_host_joules"] = row.HostJoules
		}
		return m, en.Render(), nil
	}},
	{name: "x6-failover", run: func(o opts) (metrics, string, error) {
		fo, err := experiments.RunFailover(o.seed, o.duration)
		if err == nil {
			err = experiments.CheckFailoverShape(fo)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range fo.Rows {
			m[slug(row.Scenario)+"_availability"] = row.Availability
			m[slug(row.Scenario)+"_detect_ms"] = row.DetectMS
			m[slug(row.Scenario)+"_migrate_ms"] = row.MigrateMS
			m[slug(row.Scenario)+"_post_stddev_ms"] = row.PostJitter.StdDev
		}
		return m, fo.Render(), nil
	}},
	{name: "x7-saturation", run: func(o opts) (metrics, string, error) {
		sat, err := experiments.RunSaturation(o.seed, experiments.X7Duration)
		if err == nil {
			err = experiments.CheckSaturationShape(sat)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range sat.Rows {
			key := fmt.Sprintf("rate%dk_batch%d", row.RateHz/1000, row.Batch)
			m[key+"_cycles_per_msg"] = row.CyclesPerMsg
			m[key+"_lat_mean_ms"] = row.MeanLatencyMS
			m[key+"_interrupts"] = float64(row.Interrupts)
			m[key+"_events"] = float64(row.EventsFired)
		}
		return m, sat.Render(), nil
	}, trace: func(seed int64) (*obs.Tracer, []ledger, string, error) {
		// The high-rate batched cell.
		row, tr, err := experiments.RunSaturationCell(
			seed, experiments.X7Duration, 50_000, 8, 100*sim.Microsecond, &obs.Config{})
		if err != nil {
			return nil, nil, "", err
		}
		return tr, []ledger{
			{"chan.send", row.Sent},
			{"chan.delivered", row.Delivered},
			{"chan.irq", row.Interrupts},
		}, "cell (50k/s, batch 8)", nil
	}},
	{name: "x8-contention", run: func(o opts) (metrics, string, error) {
		con, err := experiments.RunContention(o.seed, experiments.X8Duration, 0)
		if err == nil {
			err = experiments.CheckContentionShape(con)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range con.Rows {
			key := slug(row.Scenario)
			m[key+"_admitted"] = float64(row.Admitted)
			m[key+"_rejected"] = float64(row.Rejected)
			m[key+"_quota_denied"] = float64(row.QuotaDenied)
			m[key+"_msgs_per_app"] = float64(row.MinMsgs)
			m[key+"_reclaimed_bytes"] = float64(row.ReclaimedHostBytes)
			m[key+"_leaked_bytes"] = float64(row.LeakedHostBytes)
		}
		return m, con.Render(), nil
	}},
	{name: "x9-cluster", run: func(o opts) (metrics, string, error) {
		// The grid runs serially, then on the Sweep worker pool.
		tw, err := experiments.RunTwin("x9", twinWorkers, func(w int) (*experiments.ClusterResults, error) {
			return experiments.RunCluster(o.seed, experiments.X9Duration, w)
		})
		if err == nil {
			err = experiments.CheckClusterShape(tw.Result)
		}
		if err != nil {
			return nil, "", err
		}
		res := tw.Result
		m := metrics{}
		for _, row := range res.Rows {
			key := slug(row.Scenario)
			m[key+"_msgs_per_sec"] = row.MsgsPerSec
			m[key+"_total_msgs"] = float64(row.Total)
			m[key+"_cross_bridges"] = float64(row.CrossBridges)
			if row.Killed {
				m[key+"_migration_ms"] = row.MigrationMS
				m[key+"_moved"] = float64(row.Moved)
			}
		}
		m["scaling_4h_over_1h"] = res.Rows[2].MsgsPerSec / res.Rows[0].MsgsPerSec
		return m, res.Render() + "  (serial ≡ sweep verified bit-identical)\n", nil
	}},
	{name: "x10-autoscale", run: func(o opts) (metrics, string, error) {
		// Static provisioning at the peak count vs the autoscaler growing
		// and shrinking the shard set, with a live hot-swap at the peak.
		res, err := experiments.RunAutoscale(o.seed, twinWorkers)
		if err == nil {
			err = experiments.CheckAutoscaleShape(res)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for key, row := range map[string]*experiments.X10Row{"static": &res.Static, "auto": &res.Auto} {
			m[key+"_offered"] = float64(row.Offered)
			m[key+"_delivered"] = float64(row.Delivered)
			m[key+"_lost"] = float64(row.Lost)
			m[key+"_shard_epochs"] = float64(row.ShardEpochs)
		}
		m["auto_peak_shards"] = float64(res.Auto.PeakShards)
		m["auto_final_shards"] = float64(res.Auto.FinalShards)
		m["auto_scale_ups"] = float64(res.Auto.ScaleUps)
		m["auto_scale_downs"] = float64(res.Auto.ScaleDowns)
		m["saved_frac"] = res.SavedFrac
		m["swap_window_ms"] = res.Auto.SwapWindowMS
		m["swap_replayed"] = float64(res.Auto.SwapReplayed)
		return m, res.Render(), nil
	}},
	{name: "x11-syscalls", run: func(o opts) (metrics, string, error) {
		res, err := experiments.RunSyscalls(o.seed, twinWorkers)
		if err == nil {
			err = experiments.CheckSyscallShape(res)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range res.Rows {
			key := fmt.Sprintf("%s_rate%dk", slug(row.Variant), row.RateHz/1000)
			m[key+"_cycles_per_syscall"] = row.CyclesPerSyscall
			m[key+"_p99_lat_us"] = row.P99LatencyUS
			m[key+"_interrupts"] = float64(row.Interrupts)
			m[key+"_completed"] = float64(row.Completed)
		}
		m["batched_speedup"] = res.TopRateSpeedup
		m["swap_window_ms"] = res.Swap.SwapWindowMS
		m["swap_inflight"] = float64(res.Swap.InFlightAtSwap)
		m["swap_reissued"] = float64(res.Swap.Reissued)
		return m, res.Render(), nil
	}, trace: func(seed int64) (*obs.Tracer, []ledger, string, error) {
		// The top of the rate ladder, every dispatch variant.
		rows, tr, err := experiments.RunX11Cell(seed, experiments.X11TopRate(), 1, &obs.Config{})
		if err != nil {
			return nil, nil, "", err
		}
		var issued, executed, completed uint64
		for _, row := range rows {
			issued += row.Issued
			executed += row.Executed
			completed += row.Completed
		}
		return tr, []ledger{
			{"syscall.issue", issued},
			{"syscall.dispatch", executed},
			{"syscall.complete", completed},
		}, fmt.Sprintf("rate cell (%d/s, all variants)", experiments.X11TopRate()), nil
	}},
	{name: "x12-dataplane", run: func(o opts) (metrics, string, error) {
		// CheckDataPlaneShape gates conservation, the exactly-once log
		// ledger, hit rate under churn and the 4-host scaling headline.
		res, err := experiments.RunDataPlane(o.seed, twinWorkers)
		if err == nil {
			err = experiments.CheckDataPlaneShape(res)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range res.Rows {
			key := fmt.Sprintf("hosts%d", row.Hosts)
			m[key+"_msgs_per_sec"] = row.MsgsPerSec
			m[key+"_hit_rate"] = row.HitRate
			m[key+"_p50_lat_us"] = row.P50LatUS
			m[key+"_p99_lat_us"] = row.P99LatUS
			m[key+"_log_lines"] = float64(row.LogLines)
		}
		m["scaling_4h_over_1h"] = res.Scaling4
		m["soak_swap_window_ms"] = res.Soak.SwapWindowMS
		m["soak_replayed"] = float64(res.Soak.SwapReplayed)
		m["soak_evicted"] = float64(res.Soak.Evicted)
		m["soak_log_lines"] = float64(res.Soak.LogLines)
		return m, res.Render(), nil
	}, trace: func(seed int64) (*obs.Tracer, []ledger, string, error) {
		// One 4-host cell, serial windows.
		row, tr, err := experiments.RunX12Cell(seed, 4, 1, &obs.Config{})
		if err != nil {
			return nil, nil, "", err
		}
		return tr, []ledger{
			{"flow.hit", row.Hits},
			{"flow.miss", row.Misses},
			{"flow.insert", row.Inserts},
			{"flow.evict", row.Evicted},
			{"flow.expire", row.Expired},
			{"flow.drop", row.PolicyDrops},
		}, fmt.Sprintf("data-plane cell (4 hosts, %d pkts/s)", row.OfferedRateHz), nil
	}},
	{name: "engine", run: func(o opts) (metrics, string, error) {
		eb, err := experiments.RunEngineBench(o.seed, experiments.EngineBenchEvents)
		if err == nil {
			err = experiments.CheckEngineBenchShape(eb, experiments.EngineBenchEvents)
		}
		if err != nil {
			return nil, "", err
		}
		m := metrics{}
		for _, row := range eb.Rows {
			key := slug(row.Scenario)
			m[key+"_events"] = float64(row.Events)
			m[key+"_canceled"] = float64(row.Canceled)
			m[key+"_events_per_sec"] = row.EventsPerSec
			m[key+"_allocs_per_event"] = row.AllocsPerEvent
		}
		return m, eb.Render(), nil
	}},
	{name: "x9-parallel", run: func(o opts) (metrics, string, error) {
		// Wall clocks are informational (1-CPU hosts cannot show a win).
		tw, err := experiments.RunClusterParallel(o.seed, experiments.X9Duration, twinWorkers)
		if err != nil {
			return nil, "", err
		}
		row := tw.Result
		return metrics{
				"msgs_per_sec":  row.MsgsPerSec,
				"total_msgs":    float64(row.Total),
				"cross_bridges": float64(row.CrossBridges),
				"bridged":       float64(row.Bridged),
				"workers":       float64(tw.Workers),
				"serial_ms":     tw.SerialMS,
				"parallel_ms":   tw.ParallelMS,
			}, fmt.Sprintf(
				"X9p — Conservative-window parallel cluster: 4 per-host engines, %d shards\n"+
					"  %.0f msgs/s over %d cross bridges; 1 worker ≡ %d workers bit-identical\n"+
					"  wall-clock: serial windows %.0f ms, parallel %.0f ms (GOMAXPROCS %d)\n",
				experiments.X9Shards, row.MsgsPerSec, row.CrossBridges, tw.Workers,
				tw.SerialMS, tw.ParallelMS, runtime.GOMAXPROCS(0)), nil
	}},
	{name: "table2-jitter-sweep", run: func(o opts) (metrics, string, error) {
		seeds := make([]int64, o.replicas)
		for i := range seeds {
			seeds[i] = o.seed + int64(i)
		}
		tw, err := experiments.RunTwin("jitter sweep", twinWorkers, func(w int) (*experiments.JitterSweep, error) {
			return experiments.RunJitterSweep(tivopc.SimpleServer, seeds, o.duration, w)
		})
		if err != nil {
			return nil, "", err
		}
		workers := min(tw.Workers, o.replicas) // the pool never outnumbers its replicas
		speedup := tw.SerialMS / tw.ParallelMS
		return metrics{
				"replicas":         float64(o.replicas),
				"workers":          float64(workers),
				"serial_ms":        tw.SerialMS,
				"parallel_ms":      tw.ParallelMS,
				"speedup":          speedup,
				"pooled_median_ms": tw.Result.Pooled.Median,
				"pooled_stddev_ms": tw.Result.Pooled.StdDev,
			}, tw.Result.Render() + fmt.Sprintf(
				"sweep wall-clock: serial %.0f ms, parallel %.0f ms (%.2fx, %d workers) — results identical\n",
				tw.SerialMS, tw.ParallelMS, speedup, workers), nil
	}},
}

func main() {
	quick := flag.Bool("quick", false, "short runs (20 s simulated instead of 120 s, 4 sweep replicas instead of 8)")
	seed := flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	scenarioList := flag.String("scenario", "", "run only the named scenarios, comma-separated; a prefix before '-' selects every scenario sharing it (e.g. x12 or engine,x7,x9)")
	baseline := flag.String("baseline", "", "BENCH_*.json to compare against: fail if a deterministic metric differs or events/s drops below 0.8x")
	traceList := flag.String("trace", "", "name=path[,name=path]: write one traced, reconciled cell of scenario x7, x11 or x12 to path as Chrome trace-event JSON")
	flag.Parse()

	o := newOpts(*seed, *quick)
	selected, err := selectScenarios(*scenarioList)
	check(err)
	traces, err := parseTraces(*traceList)
	check(err)

	rep := &report{Seed: o.seed, SimSeconds: o.duration.Float64Seconds(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	verbose := !*jsonOut
	if verbose {
		fmt.Printf("HYDRA evaluation reproduction — seed %d, %v simulated per scenario\n\n", o.seed, o.duration)
	}
	for _, s := range selected {
		start := time.Now()
		m, rendered, err := s.run(o)
		check(err)
		rep.Scenarios = append(rep.Scenarios, scenarioResult{
			Name:    s.name,
			WallMS:  float64(time.Since(start).Microseconds()) / 1000,
			Metrics: m,
		})
		if verbose {
			fmt.Println(rendered)
		}
	}
	for _, t := range traces {
		check(writeTrace(t.sc, t.path, o.seed, verbose))
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		check(err)
		compared, regressions, err := compareBaseline(rep, base)
		check(err)
		rep.Baseline = &baselineResult{Path: *baseline, Compared: compared, Regressions: regressions}
		if verbose {
			for _, line := range compared {
				fmt.Println("baseline " + line)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	}
	if b := rep.Baseline; b != nil && len(b.Regressions) > 0 {
		check(fmt.Errorf("baseline %s: regressed:\n  %s", b.Path, strings.Join(b.Regressions, "\n  ")))
	}
}

// selectScenarios resolves a -scenario list to table entries, in table
// order; an empty list selects them all, and a name matching nothing is an
// error.
func selectScenarios(list string) ([]*scenario, error) {
	var names []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return scenarios, nil
	}
	var out []*scenario
	used := map[string]bool{}
	for _, s := range scenarios {
		for _, n := range names {
			if s.matches(n) {
				out = append(out, s)
				used[n] = true
				break
			}
		}
	}
	var unknown []string
	for _, n := range names {
		if !used[n] {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown scenario(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

type traceTarget struct {
	sc   *scenario
	path string
}

// parseTraces resolves a -trace list of name=path pairs; each name must
// select exactly one scenario that has a traced cell.
func parseTraces(list string) ([]traceTarget, error) {
	var out []traceTarget
	for _, pair := range strings.Split(list, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		name, path, ok := strings.Cut(pair, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("-trace %q: want name=path", pair)
		}
		var hit []*scenario
		for _, s := range scenarios {
			if s.trace != nil && s.matches(name) {
				hit = append(hit, s)
			}
		}
		if len(hit) != 1 {
			return nil, fmt.Errorf("-trace %q: no traced scenario %q (have x7, x11, x12)", pair, name)
		}
		out = append(out, traceTarget{hit[0], path})
	}
	return out, nil
}

// writeTrace runs sc's traced cell and writes its merged recorder stream
// to path as Chrome trace-event JSON. It first requires that the ring
// dropped nothing and that every ledger's record count matches the cell's
// own accounting, so an archived trace is known to agree with the numbers
// the tables report.
func writeTrace(sc *scenario, path string, seed int64, verbose bool) error {
	tr, ledgers, label, err := sc.trace(seed)
	if err != nil {
		return fmt.Errorf("trace %s: %w", sc.name, err)
	}
	if n := tr.Dropped(); n != 0 {
		return fmt.Errorf("trace %s: ring overflowed, %d records dropped", sc.name, n)
	}
	counts := map[string]uint64{}
	for _, rec := range tr.Merged() {
		counts[rec.Name]++
	}
	for _, l := range ledgers {
		if counts[l.name] != l.want {
			return fmt.Errorf("trace %s: %s records %d, the cell's stats say %d", sc.name, l.name, counts[l.name], l.want)
		}
	}
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("trace %s: %w", sc.name, err)
	}
	if verbose {
		fmt.Printf("trace %s: %s -> %s: %d records reconciled\n", sc.name, label, path, tr.Len())
	}
	return nil
}

// eventsBand is the floor for the engine's *_events_per_sec metrics
// relative to the committed baseline: they are wall-clock derived, so the
// gate tolerates up to a 20% dip before calling it a regression.
const eventsBand = 0.8

// gatedExactly reports whether key is a deterministic metric the gate
// requires to equal its baseline. Virtual-clock results are fixed for a
// seed, so any change is a behaviour change. The exceptions measure the
// host instead: events/s (gated by eventsBand), allocations per event, the
// twin runs' wall clocks and speedup, and the worker count they ran with.
func gatedExactly(key string) bool {
	switch key {
	case "serial_ms", "parallel_ms", "speedup", "workers":
		return false
	}
	return !strings.HasSuffix(key, "_events_per_sec") && !strings.HasSuffix(key, "_allocs_per_event")
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &r, nil
}

// compareBaseline checks every metric rep shares with base: deterministic
// metrics must be equal, *_events_per_sec must stay above eventsBand× the
// baseline, and the host-dependent rest is not compared. A scenario that
// ran must also report every deterministic key its baseline holds: a
// missing key is a regression, not a silent skip. It returns one line per
// compared metric and one per regression, each list sorted. Scenarios that
// did not run, and keys only the run has, are ignored, so a baseline
// stays usable for a -scenario subset and as the suite grows; nothing
// comparable at all is an error.
func compareBaseline(rep, base *report) (compared, regressions []string, err error) {
	baseMetrics := map[string]map[string]float64{}
	for _, s := range base.Scenarios {
		baseMetrics[s.Name] = s.Metrics
	}
	for _, s := range rep.Scenarios {
		bm := baseMetrics[s.Name]
		for key := range bm {
			if _, ok := s.Metrics[key]; !ok && gatedExactly(key) {
				regressions = append(regressions, fmt.Sprintf("%s/%s: missing from the run (baseline %v)",
					s.Name, key, bm[key]))
			}
		}
		for key, got := range s.Metrics {
			want, ok := bm[key]
			switch {
			case !ok:
				continue
			case gatedExactly(key):
				compared = append(compared, fmt.Sprintf("%s/%s: %v vs %v", s.Name, key, got, want))
				if got != want {
					regressions = append(regressions, fmt.Sprintf("%s/%s: %v vs baseline %v (must be equal)",
						s.Name, key, got, want))
				}
			case strings.HasSuffix(key, "_events_per_sec") && want > 0:
				ratio := got / want
				compared = append(compared, fmt.Sprintf("%s/%s: %.2f vs %.2f (%.2fx)", s.Name, key, got, want, ratio))
				if ratio < eventsBand {
					regressions = append(regressions, fmt.Sprintf("%s/%s: %.2f vs baseline %.2f (%.2fx < %.2fx)",
						s.Name, key, got, want, ratio, eventsBand))
				}
			}
		}
	}
	if len(compared) == 0 {
		return nil, nil, fmt.Errorf("baseline: no comparable metrics (ran scenarios: %d)", len(rep.Scenarios))
	}
	sort.Strings(compared)
	sort.Strings(regressions)
	return compared, regressions, nil
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}

func check(err error) {
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
}
