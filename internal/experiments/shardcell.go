package experiments

import (
	"fmt"

	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/guid"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// The sharded cell X9, X10 and X12 share: a fleet of NIC-resident shards
// behind frontends pinned one per host, the FOS-style re-layout at
// machine scale. Each experiment brings its Offcode types, its traffic
// loop and its ledger; the fabric, the depot stocking and the commit are
// here, once.

// shardFront is what every shardCell frontend embeds: a weightless
// Offcode collecting one bridge endpoint per connected shard, in plan
// edge order, so eps[i] reaches the i-th shard connected.
type shardFront struct {
	nopOffcode
	eps []*channel.Endpoint
}

func (f *shardFront) ChannelConnected(ep *channel.Endpoint) { f.eps = append(f.eps, ep) }

func (f *shardFront) endpoints() []*channel.Endpoint { return f.eps }

// frontend is a shardCell frontend Offcode (one embedding shardFront).
type frontend interface{ endpoints() []*channel.Endpoint }

// cellFront names one frontend: its bind, ODF path, GUID and Offcode.
type cellFront struct {
	bind, path string
	guid       guid.GUID
	oc         frontend
}

// shardCell is one sharded world up to traffic. W is the experiment's
// shard Offcode type.
type shardCell[W any] struct {
	sys   *testbed.System
	coord *cluster.Coordinator
	// group drives per-host engines (Spec.EnginePerHost); it is nil on a
	// shared clock.
	group *sim.Group
	// base is the virtual time traffic may start at: the latest engine
	// clock once the commit has settled.
	base      sim.Time
	app       string // the cluster app name, also the shard bind prefix
	frontends []cellFront
	shards    int // shard Offcodes stocked
	// workers maps each shard bind to its latest live instance (a
	// hot-swap replacement overwrites its predecessor).
	workers map[string]W
}

// bind and path name shard i: bind "<app>.ShardNN" at "/<app>/<bind>.odf".
func (c *shardCell[W]) bind(i int) string { return fmt.Sprintf("%s.Shard%02d", c.app, i) }
func (c *shardCell[W]) path(i int) string { return "/" + c.app + "/" + c.bind(i) + ".odf" }

// swapPath is shard 0's hot-swap image.
func (c *shardCell[W]) swapPath() string { return "/" + c.app + "/Shard00.v2.odf" }

// openShardCell builds the fabric through nicCluster and stocks every
// runtime host's depot identically, so the solver may place any shard
// anywhere: the frontends, then shards shard Offcodes (shard i with GUID
// shardGUID+i, an 8 KiB image and newShard(i) as its constructor), then,
// when swapGUID is set, shard 0's hot-swap image: same bind, swapGUID,
// and a 256 KiB image whose bus transfer makes the quiesce window long
// enough to catch live traffic. cfg.AppName prefixes the shard binds.
func openShardCell[W any](seed int64, spec testbed.Spec, hosts int, sc *testbed.SyscallSpec, cfg cluster.Config,
	fronts []cellFront, shards int, shardGUID, swapGUID guid.GUID, newShard func(i int) W) (*shardCell[W], error) {
	sys, coord, err := nicCluster(seed, spec, hosts, sc, cfg)
	if err != nil {
		return nil, err
	}
	c := &shardCell[W]{sys: sys, coord: coord, app: cfg.AppName, frontends: fronts, shards: shards,
		workers: make(map[string]W)}
	stockShard := func(dep *depot.Depot, i int, path string, g guid.GUID, size int) error {
		bind := c.bind(i)
		return stockOffcode(dep, path, bind, g, size, nicImports, func() any {
			w := newShard(i)
			c.workers[bind] = w
			return w
		})
	}
	for _, hs := range sys.RuntimeHosts() {
		for _, f := range fronts {
			if err := stockOffcode(hs.Depot, f.path, f.bind, f.guid, 0, nil, func() any { return f.oc }); err != nil {
				return nil, err
			}
		}
		for i := 0; i < shards; i++ {
			if err := stockShard(hs.Depot, i, c.path(i), shardGUID+guid.GUID(i), 8<<10); err != nil {
				return nil, err
			}
		}
		if swapGUID != 0 {
			if err := stockShard(hs.Depot, 0, c.swapPath(), swapGUID, 256<<10); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// commit deploys frontend h pinned weightless to host h<h>, then shards
// 0…n-1 as unit-load roots (on host pin(i), or placed by the solver when
// pin is nil), then connects every frontend to every shard in
// frontend-major order, charging traffic t per edge. It drives simulated
// time until the plan settles: Group.Settle under per-host engines, whose
// group it opens first, or Engine.RunAll on a shared clock. It fails
// unless each frontend then holds one endpoint per shard, and sets base.
func (c *shardCell[W]) commit(n int, pin func(i int) string, t cluster.Traffic) error {
	drive, engines := func() { c.sys.Eng.RunAll() }, []*sim.Engine{c.sys.Eng}
	if c.sys.Spec.EnginePerHost {
		g, err := c.coord.EngineGroup()
		if err != nil {
			return err
		}
		c.group, drive, engines = g, g.Settle, g.Engines()
	}
	plan := c.coord.Plan()
	for h, f := range c.frontends {
		if err := plan.AddRoot(f.path, cluster.PinTo(fmt.Sprintf("h%d", h)), cluster.WithLoad(0)); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		var opts []cluster.RootOption
		if pin != nil {
			opts = append(opts, cluster.PinTo(pin(i)))
		}
		if err := plan.AddRoot(c.path(i), opts...); err != nil {
			return err
		}
	}
	for _, f := range c.frontends {
		for i := 0; i < n; i++ {
			if err := plan.Connect(f.bind, c.bind(i), t); err != nil {
				return err
			}
		}
	}
	if err := settle(c.app+": commit", func(done func(error)) {
		plan.Commit(func(_ *cluster.Deployment, err error) { done(err) })
	}, drive); err != nil {
		return err
	}
	for _, f := range c.frontends {
		if got := len(f.oc.endpoints()); got != n {
			return fmt.Errorf("%s: frontend %s holds %d endpoints after committing %d shards", c.app, f.bind, got, n)
		}
	}
	// Engines settle at different times: a measured window starting at
	// the latest clock sees every host for its full length.
	for _, e := range engines {
		c.base = max(c.base, e.Now())
	}
	return nil
}

// mutate applies deltas to the live deployment and settles the engine
// group (per-host engines only).
func (c *shardCell[W]) mutate(deltas ...cluster.ShardDelta) (*cluster.ClusterMutation, error) {
	var res *cluster.ClusterMutation
	err := settle(c.app+": mutation", func(done func(error)) {
		c.coord.Mutate(deltas, func(m *cluster.ClusterMutation, err error) { res = m; done(err) })
	}, c.group.Settle)
	return res, err
}

// swap hot-swaps shard 0 to its stocked swap image. It returns the
// quiesce→replay window in ms and the client messages held during it and
// replayed to the replacement.
func (c *shardCell[W]) swap() (windowMS float64, replayed int, err error) {
	res, err := c.mutate(cluster.SwapShard{Bind: c.bind(0), Path: c.swapPath()})
	if err != nil {
		return 0, 0, fmt.Errorf("%s: swap: %w", c.app, err)
	}
	sw := res.Swaps[0]
	return float64(sw.Window) / float64(sim.Millisecond), sw.Replayed, nil
}

// nicCluster adds hosts machines h0…h(n-1) to spec, each with one XScale
// NIC, a HYDRA runtime and (when sc is set) a syscall plane, builds it,
// and opens a cluster coordinator over every host.
func nicCluster(seed int64, spec testbed.Spec, hosts int, sc *testbed.SyscallSpec, cfg cluster.Config) (*testbed.System, *cluster.Coordinator, error) {
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%d", i)
		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
			Name:     name,
			Devices:  []device.Config{device.XScaleNIC(name + "-nic")},
			Runtime:  &core.Config{},
			Syscalls: sc,
		})
	}
	sys, err := testbed.New(seed, spec)
	if err != nil {
		return nil, nil, err
	}
	coord, err := cluster.New(sys, cfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, coord, nil
}
