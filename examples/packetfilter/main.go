// Command packetfilter offloads a packet filter/counter to the programmable
// NIC — the generalization of TCP offload the paper argues for in §1.1 —
// and compares it against host-side filtering of the same flow: interrupts,
// DMA crossings and cycles disappear from the host.
//
// This is the two-minute, single-NIC introduction. The production-scale
// version of the same idea is the X12 data plane (internal/experiments,
// `hydra-bench -scenario x12`): sharded match-action pipelines with connection tracking,
// open-loop flow churn, weak scaling across hosts, and hot-swap under
// load.
package main

import (
	"fmt"
	"log"

	"hydra"
	"hydra/internal/cache"
	"hydra/internal/core"
	"hydra/internal/netsim"
	"hydra/internal/sim"
)

// filterOffcode drops packets whose first byte fails the predicate and
// counts the rest, entirely on the NIC.
type filterOffcode struct {
	ctx     *core.Context
	Passed  int
	Dropped int
}

func (f *filterOffcode) Initialize(ctx *core.Context) error { f.ctx = ctx; return nil }
func (f *filterOffcode) Start() error                       { return nil }
func (f *filterOffcode) Stop() error                        { return nil }

func (f *filterOffcode) Packet(p []byte) {
	f.ctx.Device.Exec(300, func() {
		if len(p) > 0 && p[0]%4 == 0 {
			f.Passed++
		} else {
			f.Dropped++
		}
	})
}

const filterODF = `<offcode>
  <package><bindname>net.Filter</bindname><GUID>4242</GUID></package>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
  </targets>
</offcode>`

const packets = 5000

func main() {
	offHost, offPassed := run(true)
	hostBusy, hostPassed := run(false)
	if offPassed != hostPassed {
		log.Fatalf("filters disagree: %d vs %d", offPassed, hostPassed)
	}
	fmt.Printf("packet filter over %d packets (1 kB each):\n", packets)
	fmt.Printf("  offloaded to NIC: host CPU busy %v\n", offHost)
	fmt.Printf("  host filtering:   host CPU busy %v (%.0fx more)\n",
		hostBusy, float64(hostBusy)/float64(max64(int64(offHost), 1)))
	fmt.Printf("  passed %d / dropped %d — identical verdicts on both paths\n",
		offPassed, packets-offPassed)
}

func run(offloaded bool) (sim.Time, int) {
	// One declarative topology for both variants: a host with a
	// programmable NIC, and two free-standing traffic stations. Only the
	// offloaded variant gives the host a HYDRA runtime.
	var rtCfg *hydra.RuntimeConfig
	var apps []hydra.AppSpec
	if offloaded {
		rtCfg = &hydra.RuntimeConfig{}
		apps = []hydra.AppSpec{{Name: "filter-app"}}
	}
	sys, err := hydra.NewTestbed(7, hydra.TestbedSpec{
		Name:     "packetfilter",
		Net:      &hydra.NetSpec{Config: netsim.GigabitSwitched()},
		Stations: []string{"src", "dst"},
		Hosts: []hydra.HostSpec{{
			Name:    "host",
			Devices: []hydra.DeviceConfig{hydra.XScaleNIC("nic0")},
			Runtime: rtCfg,
			Apps:    apps,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, nic := sys.Eng, sys.Device("nic0")
	host := sys.Host("host").Machine
	src, dst := sys.Station("src"), sys.Station("dst")

	passed := 0
	var oc *filterOffcode
	if offloaded {
		dep := sys.Host("host").Depot
		dep.PutFile("/net/filter.odf", []byte(filterODF))
		if err := dep.RegisterObject(hydra.SynthesizeObject("net.Filter", 4242, 2048,
			[]string{"hydra.Heap.Alloc"})); err != nil {
			log.Fatal(err)
		}
		oc = &filterOffcode{}
		dep.RegisterFactory(4242, func() any { return oc })
		plan := sys.Host("host").App("filter-app").Plan()
		if err := plan.AddRoot("/net/filter.odf"); err != nil {
			log.Fatal(err)
		}
		plan.Commit(func(d *hydra.Deployment, err error) {
			if err != nil {
				log.Fatal(err)
			}
			// RX path terminates at the NIC-resident Offcode.
			dst.Bind(9, func(p netsim.Packet) { oc.Packet(p.Payload) })
		})
	} else {
		// Host path: DMA each packet up, interrupt, filter in the kernel.
		task := host.NewTask("filter")
		ring := host.Alloc(64 << 10)
		dst.Bind(9, func(p netsim.Packet) {
			nic.DMAToHost(ring, len(p.Payload), nil)
			nic.InterruptHost(3000, nil)
			data := p.Payload
			task.Syscall(4000, func() {
				task.TouchRange(cache.Kernel, ring, len(data))
				if len(data) > 0 && data[0]%4 == 0 {
					passed++
				}
			})
		})
	}

	// A paced 1 kB flow, starting after deployment has settled.
	for i := 0; i < packets; i++ {
		i := i
		eng.At(5*sim.Millisecond+sim.Time(i)*100*sim.Microsecond, func() {
			payload := make([]byte, 1024)
			payload[0] = byte(i)
			_ = src.Send("dst", 9, payload)
		})
	}
	eng.RunAll()
	if oc != nil {
		passed = oc.Passed
	}
	return host.BusyTime(), passed
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
