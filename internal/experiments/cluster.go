package experiments

import (
	"fmt"
	"strings"

	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// X9: cluster-wide deployment. A frontend Offcode on host h0 drives a
// fixed pool of NIC-resident shard workers through cluster bridges, one
// closed-loop request/reply stream per shard (each reply immediately
// triggers the next request, so every NIC's firmware queue stays fed and
// per-NIC service cycles are the throughput bound). The grid sweeps host
// count × inter-host link latency at a fixed shard count: with cheap
// links, spreading 8 shards over 4 NICs nearly quadruples aggregate
// throughput; with slow links, the remote shards become latency-bound and
// the scaling collapses — exactly the trade the placement solver's link
// costs encode. One extra cell kills a whole host mid-run and measures
// cross-host migration: the dead machine's shards carry their checkpointed
// counts onto survivors and the stream resumes.

// X9Duration is the per-cell simulated time.
const X9Duration = 4 * sim.Second

// X9MsgBytes is the request/reply payload size.
const X9MsgBytes = 1024

// X9Shards is the shard-worker pool size.
const X9Shards = 8

// x9ServiceCycles is the firmware work per request on the shard's NIC
// (600k cycles ≈ 1 ms on the 600 MHz XScale): the deliberate bottleneck
// the sharding spreads across machines.
const x9ServiceCycles = 600_000

// x9Worker is one NIC-resident shard: every request costs service cycles
// on its device, then a reply goes back through the bridge. The received
// count rides checkpoints across cross-host migrations.
type x9Worker struct {
	nopOffcode
	recvCounter
	ctx *core.Context
}

func (w *x9Worker) Initialize(ctx *core.Context) error { w.ctx = ctx; return nil }

func (w *x9Worker) ChannelConnected(ep *channel.Endpoint) {
	ep.InstallCallHandler(func(data []byte) {
		w.recv++
		reply := make([]byte, len(data))
		if dev := w.ctx.Device; dev != nil {
			dev.Exec(x9ServiceCycles, func() { ep.Write(reply) })
		} else {
			w.ctx.Host.NewTask("x9-worker").Compute(x9ServiceCycles, func() { ep.Write(reply) })
		}
	})
}

// x9Frontend drives the closed loops: one endpoint per shard (handed over
// as each bridge leg connects), one outstanding request per endpoint.
type x9Frontend struct {
	shardFront
	outstanding map[*channel.Endpoint]bool
	req         []byte
}

func (f *x9Frontend) ChannelConnected(ep *channel.Endpoint) {
	f.shardFront.ChannelConnected(ep)
	f.outstanding[ep] = false
	ep.InstallCallHandler(func([]byte) {
		if ep.Write(f.req) != nil {
			f.outstanding[ep] = false
		}
	})
}

// Kick issues a request on every idle endpoint — after the initial commit
// and again after a migration rebuilds bridges (replacing the endpoints
// whose channels died with the failed host).
func (f *x9Frontend) Kick() {
	for _, ep := range f.eps {
		if !f.outstanding[ep] {
			if ep.Write(f.req) == nil {
				f.outstanding[ep] = true
			}
		}
	}
}

// ClusterRow is one X9 cell's outcome.
type ClusterRow struct {
	Scenario string
	Hosts    int
	Shards   int
	// LinkLatencyMS is the one-way inter-host link latency.
	LinkLatencyMS float64
	// Total counts requests processed across all shards; MsgsPerSec is the
	// aggregate rate over the run.
	Total      uint64
	MsgsPerSec float64
	// MinShard / MaxShard bound per-shard processed counts.
	MinShard, MaxShard uint64
	// CrossBridges counts edges the solver routed across hosts; Bridged is
	// the total messages their relays carried; Dropped counts relays lost
	// to a mid-flight teardown (only the kill cell may see any).
	CrossBridges int
	Bridged      uint64
	Dropped      uint64
	// Killed marks the host-failure cell; Moved counts the shards migrated
	// off the dead machine, MigrationMS how long the cross-host migration
	// took, and PostKillMsgs how many requests the moved shards processed
	// after resuming from their carried checkpoints.
	Killed       bool
	Moved        int
	MigrationMS  float64
	PostKillMsgs uint64
}

// ClusterResults holds X9.
type ClusterResults struct {
	Duration sim.Time
	Rows     []ClusterRow
}

// x9Link is the fast inter-host link (the paper testbed's switched
// gigabit); x9SlowLink models a congested or long-haul path.
func x9Link() cluster.Link     { return cluster.DefaultLink() }
func x9SlowLink() cluster.Link { return cluster.Link{Latency: 5 * sim.Millisecond, BytesPerSec: 125e6} }

// clusterVariant is one X9 grid cell.
type clusterVariant struct {
	name  string
	hosts int
	link  cluster.Link
	kill  bool
}

// clusterVariants is the X9 grid.
func clusterVariants() []clusterVariant {
	return []clusterVariant{
		{"1 host", 1, x9Link(), false},
		{"2 hosts", 2, x9Link(), false},
		{"4 hosts", 4, x9Link(), false},
		{"4 hosts, slow link", 4, x9SlowLink(), false},
		{"4 hosts, kill h3", 4, x9Link(), true},
	}
}

// RunCluster executes the X9 grid on workers goroutines (0 = GOMAXPROCS,
// 1 = serial; results bit-identical for any workers value).
func RunCluster(seed int64, duration sim.Time, workers int) (*ClusterResults, error) {
	rows, err := grid("cluster", seed, workers, clusterVariants(), func(seed int64, v clusterVariant) (*ClusterRow, error) {
		row, err := RunClusterCell(seed, duration, v.hosts, X9Shards, v.link, v.kill)
		if err == nil {
			row.Scenario = v.name
		}
		return row, err
	})
	if err != nil {
		return nil, err
	}
	out := &ClusterResults{Duration: duration}
	for _, row := range rows {
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// openX9Cell builds and commits one X9 topology: hosts machines with one
// XScale NIC each, the frontend pinned to h0 (weightless), shards
// unit-load shard workers placed by the solver, and one closed-loop edge
// per shard whose traffic estimate (≈1000 req/s of 1 kB messages) is
// what the solver charges against each candidate link. perHost selects
// Spec.EnginePerHost (conservative-window execution); trace, when
// non-nil, attaches the obs recorder to every engine.
func openX9Cell(seed int64, hosts, shards int, link cluster.Link, perHost bool, trace *obs.Config) (*shardCell[*x9Worker], *x9Frontend, error) {
	front := &x9Frontend{outstanding: make(map[*channel.Endpoint]bool), req: make([]byte, X9MsgBytes)}
	cell, err := openShardCell(seed, testbed.Spec{Name: "x9-cluster", EnginePerHost: perHost, Trace: trace}, hosts, nil,
		cluster.Config{AppName: "x9", DefaultLink: link},
		[]cellFront{{"x9.Front", "/x9/front.odf", 9900, front}}, shards, 9901, 0,
		func(int) *x9Worker { return &x9Worker{} })
	if err == nil {
		err = cell.commit(shards, nil, cluster.Traffic{BytesPerSec: 1000 * X9MsgBytes, MsgsPerSec: 1000})
	}
	return cell, front, err
}

// collectX9 fills the throughput and bridge columns of row from the
// cell's final state.
func collectX9(cell *shardCell[*x9Worker], row *ClusterRow, duration sim.Time) {
	for i := 0; i < cell.shards; i++ {
		got := cell.workers[cell.bind(i)].recv
		row.Total += got
		if i == 0 || got < row.MinShard {
			row.MinShard = got
		}
		if got > row.MaxShard {
			row.MaxShard = got
		}
	}
	row.MsgsPerSec = float64(row.Total) / duration.Float64Seconds()
	for _, br := range cell.coord.Bridges() {
		if br.Cross() {
			row.CrossBridges++
		}
		aToB, bToA := br.Relayed()
		row.Bridged += aToB + bToA
		row.Dropped += br.Dropped()
	}
}

// RunClusterCell runs one X9 cell on a shared clock: hosts machines (one
// XScale NIC each), shards closed-loop worker streams sharded by the
// cluster solver, and — when kill is set — a whole-host failure at half
// time with cross-host migration.
func RunClusterCell(seed int64, duration sim.Time, hosts, shards int, link cluster.Link, kill bool) (*ClusterRow, error) {
	cell, front, err := openX9Cell(seed, hosts, shards, link, false, nil)
	if err != nil {
		return nil, err
	}
	eng, workers := cell.sys.Eng, cell.workers
	row := &ClusterRow{
		Hosts: hosts, Shards: shards, Killed: kill,
		LinkLatencyMS: float64(link.Latency) / float64(sim.Millisecond),
	}

	start := cell.base
	end := start + duration
	front.Kick()

	var migErr error
	var atMigration uint64
	var movedBinds []string
	if kill {
		victim := fmt.Sprintf("h%d", hosts-1)
		eng.At(start+duration/2, func() {
			cell.coord.FailHost(victim, func(m *cluster.Migration, err error) {
				if err != nil {
					migErr = err
					return
				}
				row.Moved = len(m.Moved)
				row.MigrationMS = float64(m.Time()) / float64(sim.Millisecond)
				for _, mv := range m.Moved {
					movedBinds = append(movedBinds, mv.Bind)
					atMigration += workers[mv.Bind].recv
				}
				front.Kick() // restart the loops whose endpoints died
			})
		})
	}
	eng.Run(end)
	if migErr != nil {
		return nil, fmt.Errorf("x9: migration: %w", migErr)
	}

	collectX9(cell, row, duration)
	var post uint64
	for _, bind := range movedBinds {
		post += workers[bind].recv
	}
	if post > atMigration {
		row.PostKillMsgs = post - atMigration
	}
	return row, nil
}

// RunClusterCellParallel runs the no-kill X9 cell on per-host engines
// under conservative windows: the deployment commits through
// Group.Settle (control plane, global event order), then the steady
// state runs to the horizon with Group.Run on the given worker count.
// The row is bit-identical for any workers value — window bodies only
// interact through bridge links whose latency bounds the lookahead —
// which RunClusterParallel and the race tests assert. When trace is
// non-nil every per-host engine gets its own recorder shard and the
// Tracer comes back alongside the row; its merged record stream is
// bit-identical for any workers value too.
func RunClusterCellParallel(seed int64, duration sim.Time, hosts, shards, workers int, link cluster.Link, trace *obs.Config) (*ClusterRow, *obs.Tracer, error) {
	cell, front, err := openX9Cell(seed, hosts, shards, link, true, trace)
	if err != nil {
		return nil, nil, err
	}
	front.Kick()
	cell.group.Run(cell.base+duration, workers)

	row := &ClusterRow{
		Hosts: hosts, Shards: shards,
		LinkLatencyMS: float64(link.Latency) / float64(sim.Millisecond),
	}
	collectX9(cell, row, duration)
	return row, cell.sys.Tracer, nil
}

// RunClusterParallel runs the 4-host windowed X9 cell twice — window
// bodies on one worker, then on workers goroutines — and fails unless
// the rows match bit for bit. Note the windowed cell is a different
// simulation from the shared-clock X9 grid (per-host engines have
// per-host seeds and clocks), so its absolute numbers are compared only
// against itself.
func RunClusterParallel(seed int64, duration sim.Time, workers int) (*Twin[*ClusterRow], error) {
	tw, err := RunTwin("cluster parallel", workers, func(w int) (*ClusterRow, error) {
		row, _, err := RunClusterCellParallel(seed, duration, 4, X9Shards, w, x9Link(), nil)
		return row, err
	})
	if err != nil {
		return nil, err
	}
	tw.Result.Scenario = "4 hosts, windowed"
	return tw, nil
}

// CheckClusterShape asserts the qualitative X9 outcome, including the
// headline scaling claim: at low link latency, a 4-host shard more than
// doubles (in practice nearly quadruples) the 1-host aggregate.
func CheckClusterShape(r *ClusterResults) error {
	byName := map[string]*ClusterRow{}
	for i := range r.Rows {
		row := &r.Rows[i]
		byName[row.Scenario] = row
		if row.Total == 0 || row.MinShard == 0 {
			return fmt.Errorf("experiments: cluster: %s has idle shards (total %d, min %d)",
				row.Scenario, row.Total, row.MinShard)
		}
		if !row.Killed && row.Dropped != 0 {
			return fmt.Errorf("experiments: cluster: %s dropped %d relays without a failure",
				row.Scenario, row.Dropped)
		}
	}
	one, two, four := byName["1 host"], byName["2 hosts"], byName["4 hosts"]
	slow, killed := byName["4 hosts, slow link"], byName["4 hosts, kill h3"]
	if one == nil || two == nil || four == nil || slow == nil || killed == nil {
		return fmt.Errorf("experiments: cluster: grid incomplete")
	}
	if one.CrossBridges != 0 {
		return fmt.Errorf("experiments: cluster: 1 host crossed %d bridges", one.CrossBridges)
	}
	if four.CrossBridges == 0 || four.Bridged == 0 {
		return fmt.Errorf("experiments: cluster: 4 hosts bridged nothing")
	}
	if four.Total <= 2*one.Total {
		return fmt.Errorf("experiments: cluster: 4-host total %d not >2× 1-host %d",
			four.Total, one.Total)
	}
	if two.Total <= one.Total {
		return fmt.Errorf("experiments: cluster: 2-host total %d not above 1-host %d",
			two.Total, one.Total)
	}
	if slow.Total >= four.Total {
		return fmt.Errorf("experiments: cluster: slow link total %d not below fast %d",
			slow.Total, four.Total)
	}
	if killed.Moved == 0 || killed.MigrationMS <= 0 {
		return fmt.Errorf("experiments: cluster: kill cell migrated nothing (%d moved, %.3f ms)",
			killed.Moved, killed.MigrationMS)
	}
	if killed.PostKillMsgs == 0 {
		return fmt.Errorf("experiments: cluster: migrated shards never resumed")
	}
	return nil
}

// Render prints X9 in the evaluation's presentation style.
func (r *ClusterResults) Render() string {
	var b strings.Builder
	b.WriteString("X9 — Cluster-wide sharding: multi-host placement, bridges, migration\n")
	fmt.Fprintf(&b, "  (%d shards, %d B closed-loop req/reply, %dk service cycles/req, %v per cell)\n",
		X9Shards, X9MsgBytes, x9ServiceCycles/1000, r.Duration)
	b.WriteString("  Scenario              hosts  link(ms)  total msgs  msgs/s   min/shard  cross  bridged  migration\n")
	for _, row := range r.Rows {
		mig := "-"
		if row.Killed {
			mig = fmt.Sprintf("%d moved in %.2f ms", row.Moved, row.MigrationMS)
		}
		fmt.Fprintf(&b, "  %-20s  %5d  %8.2f  %10d  %7.0f  %9d  %5d  %7d  %s\n",
			row.Scenario, row.Hosts, row.LinkLatencyMS, row.Total, row.MsgsPerSec,
			row.MinShard, row.CrossBridges, row.Bridged, mig)
	}
	b.WriteString("  shape: sharding over 4 hosts exceeds 2× the 1-host aggregate at low link\n")
	b.WriteString("  latency; a slow link erodes the gain (the solver's link-cost trade); killing\n")
	b.WriteString("  a host migrates its checkpointed shards to survivors and the stream resumes.\n")
	return b.String()
}
