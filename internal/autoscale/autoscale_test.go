package autoscale

import (
	"errors"
	"strings"
	"testing"

	"hydra/internal/channel"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// fakeTarget is an instantly-settling shard set with optional failure
// injection.
type fakeTarget struct {
	n       int
	growErr error
	log     []string
}

func (t *fakeTarget) Shards() int { return t.n }

func (t *fakeTarget) Grow(done func(error)) {
	if t.growErr != nil {
		t.log = append(t.log, "grow:err")
		done(t.growErr)
		return
	}
	t.n++
	t.log = append(t.log, "grow")
	done(nil)
}

func (t *fakeTarget) Shrink(done func(error)) {
	t.n--
	t.log = append(t.log, "shrink")
	done(nil)
}

// drive schedules one Evaluate per (second, cumulative-arrivals) pair at
// one-second epochs and runs the engine dry.
func drive(t *testing.T, eng *sim.Engine, c *Controller, totals []float64) {
	t.Helper()
	for i, total := range totals {
		total := total
		eng.At(sim.Time(i+1)*sim.Second, func() { c.Evaluate(total, nil) })
	}
	eng.RunAll()
}

func newController(t *testing.T, eng *sim.Engine, tgt Target, cfg Config) *Controller {
	t.Helper()
	c, err := New(eng, obs.NewRegistry(), cfg, tgt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func actions(c *Controller) string {
	names := map[Action]string{Hold: "hold", ScaleUp: "up", ScaleDown: "down"}
	var parts []string
	for _, d := range c.decisions {
		parts = append(parts, names[d.Action])
	}
	return strings.Join(parts, ",")
}

func TestControllerRampUpAndDown(t *testing.T) {
	eng := sim.NewEngine(1)
	tgt := &fakeTarget{n: 1}
	c := newController(t, eng, tgt, Config{Capacity: 100, Max: 4})

	// Epoch rates (msgs/sec): prime, 90, 180, 180, 30, 30. With per-shard
	// capacity 100 and default thresholds 0.8/0.3: up, cooldown-hold, up,
	// cooldown-hold, down.
	drive(t, eng, c, []float64{0, 90, 270, 450, 480, 510})

	if got, want := actions(c), "hold,up,hold,up,hold,down"; got != want {
		t.Fatalf("actions = %s, want %s", got, want)
	}
	if tgt.n != 2 {
		t.Fatalf("shards = %d, want 2", tgt.n)
	}
	if c.ScaleUps() != 2 || c.ScaleDowns() != 1 {
		t.Fatalf("ups/downs = %d/%d, want 2/1", c.ScaleUps(), c.ScaleDowns())
	}
	last := c.decisions[5]
	if last.Shards != 3 || last.Rate != 30 || last.Util != 0.1 {
		t.Fatalf("last decision = %+v", last)
	}
}

func TestControllerRespectsBounds(t *testing.T) {
	eng := sim.NewEngine(2)
	tgt := &fakeTarget{n: 2}
	c := newController(t, eng, tgt, Config{Capacity: 10, Min: 2, Max: 2, Cooldown: 1})

	// Wildly over- then under-loaded, but Min == Max == 2 pins the set.
	drive(t, eng, c, []float64{0, 1000, 1000})

	if got, want := actions(c), "hold,hold,hold"; got != want {
		t.Fatalf("actions = %s, want %s", got, want)
	}
	if len(tgt.log) != 0 {
		t.Fatalf("target was driven: %v", tgt.log)
	}
}

func TestControllerRecordsGrowFailure(t *testing.T) {
	eng := sim.NewEngine(3)
	boom := errors.New("no capacity")
	tgt := &fakeTarget{n: 1, growErr: boom}
	reg := obs.NewRegistry()
	c, err := New(eng, reg, Config{Capacity: 10, Max: 4}, tgt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	drive(t, eng, c, []float64{0, 100})

	d := c.decisions[1]
	if d.Action != ScaleUp || !errors.Is(d.Err, boom) {
		t.Fatalf("decision = %+v, want failed scale-up", d)
	}
	if c.ScaleUps() != 0 {
		t.Fatalf("ScaleUps = %d after failure, want 0", c.ScaleUps())
	}
	if got := reg.Snapshot().MustGet("autoscale.errors"); got != 1 {
		t.Fatalf("autoscale.errors = %g, want 1", got)
	}
}

func TestControllerPublishesGauges(t *testing.T) {
	eng := sim.NewEngine(4)
	tgt := &fakeTarget{n: 2}
	reg := obs.NewRegistry()
	c, err := New(eng, reg, Config{Capacity: 100, Min: 1, Max: 4}, tgt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	drive(t, eng, c, []float64{0, 100})

	snap := reg.Snapshot()
	if got := snap.MustGet("autoscale.rate"); got != 100 {
		t.Fatalf("autoscale.rate = %g, want 100", got)
	}
	if got := snap.MustGet("autoscale.util"); got != 0.5 {
		t.Fatalf("autoscale.util = %g, want 0.5", got)
	}
	if got := snap.MustGet("autoscale.shards"); got != 2 {
		t.Fatalf("autoscale.shards = %g, want 2", got)
	}

	c.ObserveChannel("front", channel.Stats{Delivered: 40, Interrupts: 8, Batches: 5})
	snap = reg.Snapshot()
	if got := snap.MustGet("front.delivered"); got != 40 {
		t.Fatalf("front.delivered = %g, want 40", got)
	}
	if got := snap.MustGet("front.msgs_per_interrupt"); got != 5 {
		t.Fatalf("front.msgs_per_interrupt = %g, want 5", got)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(5)
	reg := obs.NewRegistry()
	tgt := &fakeTarget{n: 1}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"capacity", Config{Max: 2}, "Capacity"},
		{"thresholds", Config{Capacity: 1, High: 0.2, Low: 0.5, Max: 2}, "Low < High"},
		{"bounds", Config{Capacity: 1, Min: 3, Max: 2}, "Min ≤ Max"},
	} {
		if _, err := New(eng, reg, tc.cfg, tgt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(eng, reg, Config{Capacity: 1, Max: 2}, nil); err == nil {
		t.Error("nil target accepted")
	}
}
