package obs

// The metrics half of the observability layer: a Registry of named
// counters and gauges with one deterministic snapshot API. Components
// publish into a registry on demand (PublishStats, CaptureEngine) so
// experiments read one surface instead of poking fields across
// packages. A Registry is not safe for concurrent use; publish from one
// goroutine, e.g. at a sim.Group barrier or after a run settles.

import (
	"fmt"
	"reflect"
	"sort"

	"hydra/internal/sim"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Value reports the current total.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a set-to-current-value metric.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.v }

// Registry is a flat namespace of metrics. Metric constructors are
// idempotent: asking for an existing name returns the existing metric;
// asking for a name held by a different metric kind panics.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

func (r *Registry) taken(name, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic(fmt.Sprintf("obs: %q already a counter", name))
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		panic(fmt.Sprintf("obs: %q already a gauge", name))
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.taken(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.taken(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// MetricValue is one snapshot row.
type MetricValue struct {
	Name  string
	Kind  string // "counter" or "gauge"
	Value float64
}

// Snapshot is a deterministic point-in-time view: rows sorted by name.
type Snapshot struct {
	Values []MetricValue
	byName map[string]float64
}

// MustGet looks a row up by name and panics if it is absent — for tests
// and tools where absence is a bug.
func (s Snapshot) MustGet(name string) float64 {
	v, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("obs: no metric %q in snapshot", name))
	}
	return v
}

// Snapshot captures every metric. Map iteration order is hidden by the
// final sort, so snapshots of equal registries are identical.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{byName: make(map[string]float64)}
	add := func(name, kind string, v float64) {
		s.Values = append(s.Values, MetricValue{Name: name, Kind: kind, Value: v})
		s.byName[name] = v
	}
	for name, c := range r.counters {
		add(name, "counter", c.Value())
	}
	for name, g := range r.gauges {
		add(name, "gauge", g.Value())
	}
	sort.Slice(s.Values, func(i, j int) bool { return s.Values[i].Name < s.Values[j].Name })
	return s
}

// PublishStats writes every field of stats, a struct of unsigned integer
// counters such as channel.Stats, into the registry as a gauge named
// <prefix>.<snake_case_field>. It walks the struct by reflection so a field
// added to a stats struct can never be silently missing from the metrics
// surface.
func PublishStats(r *Registry, prefix string, stats any) {
	v := reflect.ValueOf(stats)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		r.Gauge(prefix + "." + snakeCase(t.Field(i).Name)).Set(float64(v.Field(i).Uint()))
	}
}

// snakeCase converts a Go field name (Sent, CoalesceFlushes, SGWrites)
// to its metric form (sent, coalesce_flushes, sg_writes).
func snakeCase(name string) string {
	var b []byte
	rs := []rune(name)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			prevLower := i > 0 && rs[i-1] >= 'a' && rs[i-1] <= 'z'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b = append(b, '_')
			}
			r += 'a' - 'A'
		}
		b = append(b, byte(r))
	}
	return string(b)
}

// CaptureEngine publishes an engine's Diag under prefix (gauges, since a
// capture overwrites the previous one): <prefix>.fired, .scheduled,
// .pending, .ladder_on, .ladder_rungs, .ladder_converts, .slots_minted,
// .slots_free, .slots_live, .now_ns.
func CaptureEngine(r *Registry, prefix string, eng *sim.Engine) {
	d := eng.Diag()
	set := func(suffix string, v float64) { r.Gauge(prefix + suffix).Set(v) }
	set(".fired", float64(d.Fired))
	set(".scheduled", float64(d.Scheduled))
	set(".pending", float64(d.Pending))
	on := 0.0
	if d.LadderOn {
		on = 1
	}
	set(".ladder_on", on)
	set(".ladder_rungs", float64(d.Rungs))
	set(".ladder_converts", float64(d.LadderConverts))
	set(".slots_minted", float64(d.SlotsMinted))
	set(".slots_free", float64(d.SlotsFree))
	set(".slots_live", float64(d.SlotsMinted)-float64(d.SlotsFree))
	set(".now_ns", float64(d.Now))
}
