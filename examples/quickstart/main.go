// Command quickstart reproduces the paper's Figure 3 flow end to end on
// the session API: open an application session, plan and commit the
// Offcode deployment transactionally, build a reliable zero-copy unicast
// channel to it via the Channel Executive — owned and quota-accounted by
// the session — install a callback handler, invoke the Offcode through a
// typed proxy, and close the session, which reclaims everything it
// created.
//
// The next step up from this single-host flow is cluster deployment:
// hydra.NewCluster opens a coordinator over a multi-host testbed, and a
// ClusterPlan shards an Offcode graph across machines with inter-host
// bridge channels and cross-host failover (see DESIGN.md's "Cluster
// layer" and hydra-bench -scenario x9).
package main

import (
	"fmt"
	"log"

	"hydra"
	"hydra/internal/call"
	"hydra/internal/core"
)

// checksumOffcode implements IChecksum: a classic NIC offload.
type checksumOffcode struct {
	dispatcher *call.Dispatcher
	oob        *hydra.Endpoint
	dataChan   *hydra.Endpoint
}

func (c *checksumOffcode) Initialize(ctx *core.Context) error {
	c.oob = ctx.OOB
	iface, _ := hydra.ParseInterface([]byte(checksumIDL))
	c.dispatcher = call.NewDispatcher(iface)
	return c.dispatcher.Handle("Compute", func(args []any) ([]any, error) {
		data := args[0].([]byte)
		var sum uint64
		for _, b := range data {
			sum += uint64(b)
		}
		return []any{sum}, nil
	})
}

func (c *checksumOffcode) Start() error { return nil }
func (c *checksumOffcode) Stop() error  { return nil }

// ChannelConnected wires each new channel into the dispatcher: Calls in,
// Replies out.
func (c *checksumOffcode) ChannelConnected(ep *hydra.Endpoint) {
	c.dataChan = ep
	ep.InstallCallHandler(func(wire []byte) {
		cl, err := call.Unmarshal(wire)
		if err != nil {
			return
		}
		rep := c.dispatcher.Dispatch(cl)
		out, _ := call.MarshalReply(rep)
		_ = ep.Write(out)
	})
}

const checksumIDL = `<interface name="IChecksum" guid="0x2001">
  <method name="Compute">
    <in name="data" type="bytes"/>
    <out name="sum" type="uint64"/>
  </method>
</interface>`

const checksumODF = `<offcode>
  <package>
    <bindname>hydra.net.utils.Checksum</bindname>
    <GUID>6060843</GUID>
    <interface><include>/offcodes/checksum.idl</include></interface>
  </package>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`

func main() {
	// Declare the machine — host + programmable NIC on a PCI bus + HYDRA
	// runtime + our application session — and build it in one step. The
	// session carries quotas: this application may pin at most 2 MB of
	// host memory (its channel ring books 1 MB of that) and hold one
	// channel and one Offcode.
	sys, err := hydra.NewTestbed(1, hydra.TestbedSpec{
		Name: "quickstart",
		Hosts: []hydra.HostSpec{{
			Name:    "host",
			Devices: []hydra.DeviceConfig{hydra.XScaleNIC("nic0")},
			Runtime: &hydra.RuntimeConfig{},
			Apps: []hydra.AppSpec{{
				Name: "checksum-app",
				Config: hydra.AppConfig{
					MemoryQuota:  2 << 20,
					ChannelQuota: 1,
					OffcodeQuota: 1,
				},
			}},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, nic := sys.Eng, sys.Device("nic0")
	b := sys.Host("host").Bus

	// Stock the depot: ODF + interface + binary + behaviour factory.
	dep := sys.Host("host").Depot
	dep.PutFile("/offcodes/checksum.odf", []byte(checksumODF))
	dep.PutFile("/offcodes/checksum.idl", []byte(checksumIDL))
	obj := hydra.SynthesizeObject("hydra.net.utils.Checksum", 6060843, 4096,
		[]string{"hydra.Heap.Alloc", "hydra.Channel.Write"})
	if err := dep.RegisterObject(obj); err != nil {
		log.Fatal(err)
	}
	oc := &checksumOffcode{}
	if err := dep.RegisterFactory(6060843, func() any { return oc }); err != nil {
		log.Fatal(err)
	}

	// "Get our runtime and create the Offcode" (Figure 3) — as a
	// transactional plan on our session. Commit solves the placement and
	// deploys atomically.
	app := sys.Host("host").App("checksum-app")
	plan := app.Plan()
	if err := plan.AddRoot("/offcodes/checksum.odf"); err != nil {
		log.Fatal(err) // e.g. hydra.ErrDuplicateBind
	}
	plan.Commit(func(dep *hydra.Deployment, err error) {
		if err != nil {
			log.Fatal(err) // a failed commit rolled everything back
		}
		h := dep.Handles["hydra.net.utils.Checksum"]
		fmt.Printf("offcode %s deployed to %s (image %d B at %#x, committed in %v)\n",
			h.BindName, h.Device().Name(), h.ImageSize(), h.ImageAddr(),
			dep.Finished-dep.Started)

		// "Set up the channel": reliable unicast, zero-copy, sequential —
		// owned by the session and charged against its quotas.
		appEnd, _, _, err := app.CreateChannel(hydra.DefaultChannelConfig(), h)
		if err != nil {
			log.Fatal(err)
		}

		// "Install a callback handler": invoked whenever data is
		// available, as opposed to requiring the application to poll.
		appEnd.InstallCallHandler(func(wire []byte) {
			rep, err := call.UnmarshalReply(wire)
			if err != nil || rep.Err != "" {
				log.Fatalf("reply error: %v %s", err, rep.Err)
			}
			fmt.Printf("checksum reply: sum = %d (computed on %s at t=%v)\n",
				rep.Results[0], nic.Name(), eng.Now())
		})

		// Invoke transparently through a proxy.
		iface, _ := hydra.ParseInterface([]byte(checksumIDL))
		proxy := call.NewProxy(iface)
		c, err := proxy.Invoke("Compute", []byte("tapping into the fountain of cpus"))
		if err != nil {
			log.Fatal(err)
		}
		wire, _ := call.Marshal(c)
		if err := appEnd.Write(wire); err != nil {
			log.Fatal(err)
		}
	})

	eng.Run(hydra.Seconds(1))
	fmt.Printf("done: NIC busy %v, bus moved %d bytes\n", nic.BusyTime(), b.Total().Bytes)

	// Close the session: the Offcode stops and every channel ring the
	// session pinned returns to the host's memory ledger.
	live := sys.Host("host").Machine.LiveBytes()
	if err := app.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session closed: reclaimed %d bytes of pinned memory\n",
		live-sys.Host("host").Machine.LiveBytes())
}
