package experiments

import (
	"fmt"
	"strings"

	"hydra/internal/autoscale"
	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// X10: elastic autoscaling against the live-mutation surface. An open-loop
// frontend on h0 sprays a ramped request load round-robin over a shard set
// (one NIC-resident shard per worker host), and two provisioning policies
// face the same ramp: a static cell keeps the peak shard count committed
// for the whole run, while an autoscaled cell starts at the minimum and
// lets an autoscale.Controller grow/shrink the set through
// Coordinator.Mutate — incremental re-solves that only ever touch the host
// gaining or losing a shard. Shrinks are two-phase (stop routing one
// epoch, remove the next) so the drain guarantees zero lost messages. At
// the ramp's peak one shard is hot-swapped under focused traffic
// (SwapShard → core.App.Replace), measuring the swap window and the held
// /replayed client messages. The whole cell runs on per-host engines under
// conservative windows.

// X10EpochDur is one controller epoch of simulated time.
const X10EpochDur = 100 * sim.Millisecond

// X10MsgBytes is the request payload size.
const X10MsgBytes = 512

// X10ShardCapacity is one shard's provisioned service capacity in
// messages per second — the SLO constant the controller divides by.
const X10ShardCapacity = 1000

// X10MinShards / X10MaxShards bound the elastic shard set. The static
// cell provisions X10MaxShards for the whole run.
const (
	X10MinShards = 2
	X10MaxShards = 8
)

// x10SwapEpoch is the ramp-peak epoch whose traffic is focused onto the
// shard being hot-swapped.
const x10SwapEpoch = 18

// x10Phases is the load ramp: offered rate (msgs/sec) × epochs. Rates sit
// away from the controller thresholds so the stable shard count per phase
// is unambiguous: ≈2 → 5 → 8 → 5 → 2 against capacity 1000 with
// High=0.75 / Low=0.55.
var x10Phases = []struct {
	rate   int
	epochs int
}{
	{1200, 4},
	{3000, 8},
	{5600, 8},
	{3000, 8},
	{1200, 8},
}

func x10TotalEpochs() int {
	n := 0
	for _, p := range x10Phases {
		n += p.epochs
	}
	return n
}

func x10RateFor(epoch int) int {
	for _, p := range x10Phases {
		if epoch < p.epochs {
			return p.rate
		}
		epoch -= p.epochs
	}
	return x10Phases[len(x10Phases)-1].rate
}

const x10FrontBind = "x10.Front"

// x10HostOf is shard i's dedicated host.
func x10HostOf(i int) string { return fmt.Sprintf("h%d", i+1) }

// x10Worker counts deliveries; the count rides checkpoints across
// hot-swaps so a replacement continues where its predecessor stopped.
type x10Worker struct {
	nopOffcode
	recvCounter
}

func (w *x10Worker) ChannelConnected(ep *channel.Endpoint) {
	ep.InstallCallHandler(func([]byte) { w.recv++ })
}

// x10Cell is one X10 world: the sharded cell (one frontend host h0 plus
// X10MaxShards worker hosts, every depot stocked with the frontend,
// every shard and the shard-00 swap image, always on per-host engines)
// and the routing state. It implements autoscale.Target for the elastic
// run.
type x10Cell struct {
	*shardCell[*x10Worker]
	h0 *sim.Engine
	// front only collects its bridge endpoints (one per connected shard,
	// in bridge build order); the cell's pacer does the writing.
	front *shardFront
	// order mirrors front.eps: order[i] is the bind front.eps[i] reaches.
	// Entries for removed shards stay (their endpoints are closed); a
	// re-added bind appends a fresh entry, so lookups scan from the end.
	order []string
	// routable is the shard set the pacer sprays over, in add order.
	routable []string
	// pendingRemove holds shards drained this epoch and removed at the
	// next barrier (the two-phase shrink).
	pendingRemove []string
	// retired accumulates the delivery counts of removed shards.
	retired uint64
	// focus, when set, directs every write to one bind (the swap epoch).
	focus string
	sent  uint64
	seq   uint64
	req   []byte
}

// x10Traffic is the per-edge traffic estimate the solver charges.
func x10Traffic() cluster.Traffic {
	return cluster.Traffic{BytesPerSec: 800 * X10MsgBytes, MsgsPerSec: 800}
}

// openX10Cell builds the X10 world and commits the frontend plus the
// first n shards, shard i pinned to its dedicated host.
func openX10Cell(seed int64, n int, trace *obs.Config) (*x10Cell, error) {
	front := &shardFront{}
	sc, err := openShardCell(seed, testbed.Spec{Name: "x10-autoscale", EnginePerHost: true, Trace: trace}, X10MaxShards+1, nil,
		cluster.Config{AppName: "x10", DefaultLink: cluster.DefaultLink(), HostCapacity: 2},
		[]cellFront{{x10FrontBind, "/x10/front.odf", 9950, front}}, X10MaxShards, 9951, 9990,
		func(int) *x10Worker { return &x10Worker{} })
	if err != nil {
		return nil, err
	}
	cell := &x10Cell{shardCell: sc, h0: sc.sys.Host("h0").Eng, front: front, req: make([]byte, X10MsgBytes)}
	if err := sc.commit(n, x10HostOf, x10Traffic()); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		cell.order = append(cell.order, cell.bind(i))
		cell.routable = append(cell.routable, cell.bind(i))
	}
	return cell, nil
}

// epOf finds the newest frontend endpoint reaching bind.
func (cell *x10Cell) epOf(bind string) *channel.Endpoint {
	for i := len(cell.order) - 1; i >= 0; i-- {
		if cell.order[i] == bind && i < len(cell.front.eps) {
			return cell.front.eps[i]
		}
	}
	return nil
}

// write issues one open-loop request: to the focus shard during the swap
// epoch, round-robin over the routable set otherwise.
func (cell *x10Cell) write() {
	bind := cell.focus
	if bind == "" {
		if len(cell.routable) == 0 {
			return
		}
		bind = cell.routable[int(cell.seq)%len(cell.routable)]
		cell.seq++
	}
	if ep := cell.epOf(bind); ep != nil && ep.Write(cell.req) == nil {
		cell.sent++
	}
}

// armPacer schedules the epoch's open-loop writes on h0's engine.
func (cell *x10Cell) armPacer(start, end sim.Time, rate int) {
	pace(cell.h0, start, end, sim.Second/sim.Time(rate), func(sim.Time, bool) { cell.write() })
}

// delivered totals every message a shard instance received: retired
// shards at their removal-time counts, live binds at their latest
// instance (a swap replacement's restored count subsumes its
// predecessor's).
func (cell *x10Cell) delivered() uint64 {
	total := cell.retired
	for i := 0; i < X10MaxShards; i++ {
		bind := cell.bind(i)
		if cell.coord.HostOf(bind) == "" {
			continue
		}
		if w := cell.workers[bind]; w != nil {
			total += w.recv
		}
	}
	return total
}

// flushRemovals retires the shards drained during the last epoch.
func (cell *x10Cell) flushRemovals() error {
	if len(cell.pendingRemove) == 0 {
		return nil
	}
	deltas := make([]cluster.ShardDelta, 0, len(cell.pendingRemove))
	for _, bind := range cell.pendingRemove {
		if w := cell.workers[bind]; w != nil {
			cell.retired += w.recv
		}
		deltas = append(deltas, cluster.RemoveShard{Bind: bind})
	}
	cell.pendingRemove = nil
	_, err := cell.mutate(deltas...)
	return err
}

// Shards implements autoscale.Target: the set the pacer routes over.
func (cell *x10Cell) Shards() int { return len(cell.routable) }

// Grow adds the lowest-numbered free shard on its dedicated host and
// connects it to the frontend — an incremental re-solve that redeploys
// only that host.
func (cell *x10Cell) Grow(done func(error)) {
	used := make(map[string]bool, len(cell.routable)+len(cell.pendingRemove))
	for _, b := range cell.routable {
		used[b] = true
	}
	for _, b := range cell.pendingRemove {
		used[b] = true
	}
	idx := -1
	for i := 0; i < X10MaxShards; i++ {
		if !used[cell.bind(i)] {
			idx = i
			break
		}
	}
	if idx < 0 {
		done(fmt.Errorf("x10: no free shard slot"))
		return
	}
	bind := cell.bind(idx)
	res, err := cell.mutate(cluster.AddShard{
		Path: cell.path(idx),
		Pin:  x10HostOf(idx),
		Connect: []cluster.ShardEdge{
			{To: x10FrontBind, Traffic: x10Traffic()},
		},
	})
	if err == nil && res.Added[bind] == "" {
		err = fmt.Errorf("x10: %s not added", bind)
	}
	if err == nil {
		cell.order = append(cell.order, bind)
		cell.routable = append(cell.routable, bind)
	}
	done(err)
}

// Shrink is phase one of the two-phase scale-down: the newest routable
// shard stops receiving traffic now and is removed at the next barrier,
// after a full epoch's drain.
func (cell *x10Cell) Shrink(done func(error)) {
	n := len(cell.routable)
	if n == 0 {
		done(fmt.Errorf("x10: nothing to shrink"))
		return
	}
	victim := cell.routable[n-1]
	cell.routable = cell.routable[:n-1]
	cell.pendingRemove = append(cell.pendingRemove, victim)
	done(nil)
}

// X10Row is one provisioning policy's outcome over the ramp.
type X10Row struct {
	Mode   string
	Epochs int
	// Offered counts pacer writes accepted by the frontend endpoints;
	// Delivered counts shard-side receipts; Lost is the difference after
	// the final drain and must be zero.
	Offered, Delivered, Lost uint64
	// ShardEpochs integrates the routable shard count over the run — the
	// capacity actually provisioned, in shard·epochs.
	ShardEpochs int
	// PeakShards / FinalShards bracket the elastic trajectory.
	PeakShards, FinalShards int
	// ScaleUps / ScaleDowns count the controller's successful actions.
	ScaleUps, ScaleDowns int
	// SwapWindowMS is the mid-peak hot-swap's quiesce→replay span;
	// SwapReplayed counts client messages held during the window and
	// replayed to the replacement (none lost).
	SwapWindowMS float64
	SwapReplayed int
}

// RunX10Cell runs the ramp against one policy on per-host engines. auto
// selects the elastic controller; the static cell keeps X10MaxShards
// committed throughout. A non-nil trace attaches the recorder; the
// returned tracer's merged stream includes the CatMutate swap/scale
// spans.
func RunX10Cell(seed int64, auto bool, trace *obs.Config) (*X10Row, *obs.Tracer, error) {
	initial := X10MaxShards
	if auto {
		initial = X10MinShards
	}
	cell, err := openX10Cell(seed, initial, trace)
	if err != nil {
		return nil, nil, err
	}

	var ctrl *autoscale.Controller
	reg := obs.NewRegistry()
	if auto {
		ctrl, err = autoscale.New(cell.h0, reg, autoscale.Config{
			Capacity: X10ShardCapacity,
			High:     0.75, Low: 0.55,
			Min: X10MinShards, Max: X10MaxShards,
			Cooldown: 1,
		}, cell)
		if err != nil {
			return nil, nil, err
		}
	}

	base := cell.base

	mode := "static"
	if auto {
		mode = "autoscaled"
	}
	total := x10TotalEpochs()
	row := &X10Row{Mode: mode, Epochs: total, FinalShards: initial}

	var ctrlErr error
	for epoch := 0; epoch < total; epoch++ {
		n := len(cell.routable)
		row.ShardEpochs += n
		if n > row.PeakShards {
			row.PeakShards = n
		}
		start := base + sim.Time(epoch)*X10EpochDur
		end := start + X10EpochDur
		if auto && epoch == x10SwapEpoch {
			// The swap epoch: focus the whole load on the shard being
			// replaced and run the epoch inside Settle so the hot-swap
			// proceeds under live traffic — writes landing in the quiesce
			// window are held and replayed to the replacement.
			cell.focus = cell.bind(0)
			cell.armPacer(start, end, x10RateFor(epoch))
			row.SwapWindowMS, row.SwapReplayed, err = cell.swap()
			cell.focus = ""
			if err != nil {
				return nil, nil, err
			}
		} else {
			cell.armPacer(start, end, x10RateFor(epoch))
			cell.group.Run(end, 1)
		}
		if auto {
			if err := cell.flushRemovals(); err != nil {
				return nil, nil, fmt.Errorf("x10: remove: %w", err)
			}
			var agg channel.Stats
			for _, br := range cell.coord.Bridges() {
				agg.Add(br.Stats())
			}
			ctrl.ObserveChannel("x10.bridges", agg)
			ctrl.Evaluate(float64(cell.sent), func(d autoscale.Decision) {
				if d.Err != nil && ctrlErr == nil {
					ctrlErr = d.Err
				}
			})
			cell.group.Settle()
			if ctrlErr != nil {
				return nil, nil, fmt.Errorf("x10: controller: %w", ctrlErr)
			}
		}
	}
	// Final drain: deliver everything in flight before the ledger closes.
	cell.group.Run(base+sim.Time(total)*X10EpochDur+50*sim.Millisecond, 1)
	cell.group.Settle()

	row.Offered = cell.sent
	row.Delivered = cell.delivered()
	if row.Offered > row.Delivered {
		row.Lost = row.Offered - row.Delivered
	}
	row.FinalShards = len(cell.routable)
	if auto {
		row.ScaleUps = ctrl.ScaleUps()
		row.ScaleDowns = ctrl.ScaleDowns()
	}
	return row, cell.sys.Tracer, nil
}

// X10Results holds both policies plus the headline comparison.
type X10Results struct {
	Static X10Row
	Auto   X10Row
	// SavedFrac is the capacity the autoscaler left unprovisioned:
	// 1 − auto shard·epochs / static shard·epochs.
	SavedFrac float64
}

// RunAutoscale runs the X10 comparison: the static cell, then the
// autoscaled cell.
func RunAutoscale(seed int64) (*X10Results, error) {
	static, _, err := RunX10Cell(seed, false, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: x10 static: %w", err)
	}
	auto, _, err := RunX10Cell(seed, true, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: x10 auto: %w", err)
	}
	res := &X10Results{Static: *static, Auto: *auto}
	if static.ShardEpochs > 0 {
		res.SavedFrac = 1 - float64(auto.ShardEpochs)/float64(static.ShardEpochs)
	}
	return res, nil
}

// CheckAutoscaleShape asserts the qualitative X10 outcome: zero loss under
// both policies (including through the hot-swap), a real elastic
// trajectory, and a meaningful capacity saving.
func CheckAutoscaleShape(r *X10Results) error {
	for _, row := range []*X10Row{&r.Static, &r.Auto} {
		if row.Lost != 0 {
			return fmt.Errorf("experiments: x10: %s lost %d of %d messages",
				row.Mode, row.Lost, row.Offered)
		}
		if row.Offered == 0 {
			return fmt.Errorf("experiments: x10: %s offered nothing", row.Mode)
		}
	}
	a := &r.Auto
	if a.ScaleUps < 2 || a.ScaleDowns < 1 {
		return fmt.Errorf("experiments: x10: trajectory too flat (%d ups, %d downs)",
			a.ScaleUps, a.ScaleDowns)
	}
	if a.PeakShards < X10MaxShards-1 {
		return fmt.Errorf("experiments: x10: peak %d never approached max %d",
			a.PeakShards, X10MaxShards)
	}
	if a.FinalShards != X10MinShards {
		return fmt.Errorf("experiments: x10: final shard count %d, want %d",
			a.FinalShards, X10MinShards)
	}
	if a.SwapWindowMS <= 0 {
		return fmt.Errorf("experiments: x10: swap window %.3f ms", a.SwapWindowMS)
	}
	if a.SwapReplayed < 1 {
		return fmt.Errorf("experiments: x10: swap replayed %d messages; quiesce saw no traffic",
			a.SwapReplayed)
	}
	if r.SavedFrac < 0.25 {
		return fmt.Errorf("experiments: x10: autoscaling saved only %.1f%% capacity",
			100*r.SavedFrac)
	}
	return nil
}

// Render prints X10 in the evaluation's presentation style.
func (r *X10Results) Render() string {
	var b strings.Builder
	b.WriteString("X10 — Elastic autoscaling vs static provisioning over live mutation\n")
	fmt.Fprintf(&b, "  (%d epochs × %v, %d B open-loop requests, %d msgs/s per shard, %d..%d shards)\n",
		r.Auto.Epochs, X10EpochDur, X10MsgBytes, X10ShardCapacity, X10MinShards, X10MaxShards)
	b.WriteString("  Policy      offered  delivered  lost  shard·epochs  peak  final  ups  downs  swap(ms)  replayed\n")
	for _, row := range []*X10Row{&r.Static, &r.Auto} {
		swap := "-"
		replayed := "-"
		if row.SwapWindowMS > 0 {
			swap = fmt.Sprintf("%.3f", row.SwapWindowMS)
			replayed = fmt.Sprintf("%d", row.SwapReplayed)
		}
		fmt.Fprintf(&b, "  %-10s  %7d  %9d  %4d  %12d  %4d  %5d  %3d  %5d  %8s  %8s\n",
			row.Mode, row.Offered, row.Delivered, row.Lost, row.ShardEpochs,
			row.PeakShards, row.FinalShards, row.ScaleUps, row.ScaleDowns, swap, replayed)
	}
	fmt.Fprintf(&b, "  capacity saved: %.1f%% (shard·epochs); hot-swap held/replayed %d client msgs in %.3f ms, none lost\n",
		100*r.SavedFrac, r.Auto.SwapReplayed, r.Auto.SwapWindowMS)
	return b.String()
}
