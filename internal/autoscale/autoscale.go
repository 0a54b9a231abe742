// Package autoscale implements the elastic-provisioning policy over the
// live-mutation surface: an epoch-driven controller that watches the
// offered load on a shard set (arrival rate against per-shard capacity,
// plus per-channel saturation published into an obs.Registry) and grows or
// shrinks the set through the owner's incremental re-solve.
//
// The controller is deliberately mechanism-free: it never touches a
// runtime or coordinator itself. A Target supplies the current shard count
// and Grow/Shrink callbacks — in the cluster experiments those callbacks
// drive cluster.Coordinator.Mutate with AddShard/RemoveShard deltas, so
// only the affected host redeploys while the rest of the fleet keeps
// serving. Decisions are made at explicit controller epochs on the virtual
// clock (the caller invokes Evaluate; the package schedules nothing), which
// keeps autoscaled runs bit-identical between serial and windowed-parallel
// execution.
//
// Policy: utilization = arrival rate / (Capacity × shards). Above High the
// set grows by one shard, below Low it shrinks by one, and every action is
// followed by Cooldown epochs of enforced hold so the controller observes
// the effect of a move before making another. Scale events trace as
// "scale.up"/"scale.down" instants under obs.CatMutate.
package autoscale

import (
	"fmt"

	"hydra/internal/channel"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Config parameterizes the scaling policy.
type Config struct {
	// Capacity is one shard's service capacity in messages per second;
	// must be positive.
	Capacity float64
	// High and Low are the utilization thresholds: Evaluate scales up
	// above High and down below Low. Defaults 0.8 and 0.3; must satisfy
	// 0 < Low < High.
	High float64
	Low  float64
	// Min and Max bound the shard count. Min defaults to 1; Max must be
	// ≥ Min.
	Min int
	Max int
	// Cooldown is how many evaluations to hold after a scale action, so
	// the controller sees the effect of a move before the next one.
	// Default 1.
	Cooldown int
}

// Action is a controller verdict for one epoch.
type Action int

// Controller verdicts, in increasing-aggression order.
const (
	Hold Action = iota
	ScaleUp
	ScaleDown
)

func (a Action) String() string {
	switch a {
	case ScaleUp:
		return "up"
	case ScaleDown:
		return "down"
	}
	return "hold"
}

// Decision records one Evaluate epoch.
type Decision struct {
	// At is the virtual time of the evaluation.
	At sim.Time
	// Rate is the observed arrival rate since the previous epoch, msgs/sec.
	Rate float64
	// Util is Rate / (Capacity × Shards).
	Util float64
	// Shards is the set size when the epoch ran.
	Shards int
	// Action is the verdict; Err is the Grow/Shrink failure, if any.
	Action Action
	Err    error
}

// Target is the shard set the controller elastically sizes. Grow and
// Shrink adjust the set by one shard and deliver any failure; the
// controller holds further actions until the callback fires.
type Target interface {
	// Shards reports the current set size.
	Shards() int
	// Grow adds one shard.
	Grow(done func(error))
	// Shrink retires one shard.
	Shrink(done func(error))
}

// Controller evaluates the policy against a Target. Create with New;
// drive by calling Evaluate at each controller epoch.
type Controller struct {
	eng *sim.Engine
	reg *obs.Registry
	cfg Config
	tgt Target
	tr  *obs.Shard

	lastTotal float64
	lastAt    sim.Time
	primed    bool
	cooldown  int
	decisions []Decision
	ups       int
	downs     int
}

// New validates cfg and builds a controller publishing its metrics
// (autoscale.rate, autoscale.util, autoscale.shards, autoscale.errors)
// into reg.
func New(eng *sim.Engine, reg *obs.Registry, cfg Config, tgt Target) (*Controller, error) {
	if cfg.High == 0 {
		cfg.High = 0.8
	}
	if cfg.Low == 0 {
		cfg.Low = 0.3
	}
	if cfg.Min == 0 {
		cfg.Min = 1
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 1
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("autoscale: Capacity must be positive, got %g", cfg.Capacity)
	}
	if cfg.Low <= 0 || cfg.High <= cfg.Low {
		return nil, fmt.Errorf("autoscale: need 0 < Low < High, got Low=%g High=%g", cfg.Low, cfg.High)
	}
	if cfg.Min < 1 || cfg.Max < cfg.Min {
		return nil, fmt.Errorf("autoscale: need 1 ≤ Min ≤ Max, got Min=%d Max=%d", cfg.Min, cfg.Max)
	}
	if tgt == nil {
		return nil, fmt.Errorf("autoscale: nil target")
	}
	return &Controller{eng: eng, reg: reg, cfg: cfg, tgt: tgt, tr: obs.ForCat(eng, obs.CatMutate)}, nil
}

// ObserveChannel publishes one channel's stats into the registry under
// prefix — the per-channel saturation surface the experiments watch
// alongside the controller's own gauges — and derives the interrupt
// batching factor (delivered messages per interrupt), which rises as
// coalescing absorbs load.
func (c *Controller) ObserveChannel(prefix string, st channel.Stats) {
	obs.PublishStats(c.reg, prefix, st)
	if st.Interrupts > 0 {
		c.reg.Gauge(prefix + ".msgs_per_interrupt").Set(float64(st.Delivered) / float64(st.Interrupts))
	}
}

// Evaluate runs one controller epoch. arrivedTotal is the cumulative
// number of messages offered to the shard set since the world started; the
// controller differentiates it against the virtual clock to get the epoch's
// arrival rate. done (optional) fires once the verdict — including any
// Grow/Shrink it triggered — has settled.
//
// The first epoch only primes the rate window and always holds.
func (c *Controller) Evaluate(arrivedTotal float64, done func(Decision)) {
	now := c.eng.Now()
	n := c.tgt.Shards()
	d := Decision{At: now, Shards: n}
	wasPrimed := c.primed
	if wasPrimed && now > c.lastAt {
		dt := float64(now-c.lastAt) / float64(sim.Second)
		d.Rate = (arrivedTotal - c.lastTotal) / dt
	}
	c.lastTotal, c.lastAt, c.primed = arrivedTotal, now, true
	if n > 0 {
		d.Util = d.Rate / (c.cfg.Capacity * float64(n))
	}
	c.reg.Gauge("autoscale.rate").Set(d.Rate)
	c.reg.Gauge("autoscale.util").Set(d.Util)
	c.reg.Gauge("autoscale.shards").Set(float64(n))

	switch {
	case !wasPrimed:
		// Priming epoch: no rate window yet, never act.
	case c.cooldown > 0:
		c.cooldown--
	case d.Util > c.cfg.High && n < c.cfg.Max:
		d.Action = ScaleUp
	case d.Util < c.cfg.Low && n > c.cfg.Min:
		d.Action = ScaleDown
	}

	idx := len(c.decisions)
	c.decisions = append(c.decisions, d)
	if d.Action == Hold {
		if done != nil {
			done(d)
		}
		return
	}
	c.cooldown = c.cfg.Cooldown
	settle := func(err error) {
		if err != nil {
			c.decisions[idx].Err = err
			d.Err = err
			c.reg.Counter("autoscale.errors").Inc()
		} else if d.Action == ScaleUp {
			c.ups++
		} else {
			c.downs++
		}
		if c.tr.On() {
			name := "scale.up"
			if d.Action == ScaleDown {
				name = "scale.down"
			}
			c.tr.Instant(obs.CatMutate, name, int64(c.tgt.Shards()))
		}
		if done != nil {
			done(d)
		}
	}
	if d.Action == ScaleUp {
		c.tgt.Grow(settle)
	} else {
		c.tgt.Shrink(settle)
	}
}

// Decisions returns every epoch verdict so far, in order.
func (c *Controller) Decisions() []Decision { return c.decisions }

// ScaleUps and ScaleDowns count the successful scale actions so far.
func (c *Controller) ScaleUps() int { return c.ups }

// ScaleDowns counts the successful shrink actions so far.
func (c *Controller) ScaleDowns() int { return c.downs }
