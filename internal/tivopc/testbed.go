// Package tivopc implements the paper's case study (§6): a TiVo-like
// streaming appliance spanning a Video Server and a Video Client, in the
// configurations the evaluation measures —
//
//   - Simple Server: user-space loop, sleep(5 ms) → NFS read() → UDP send()
//   - Sendfile Server: kernel readahead page cache + zero-copy sendfile
//   - Offloaded Server: Offcodes on the programmable NIC (File + Broadcast),
//     paced by the device's precise hardware timer
//   - User-space Client: interrupt → copy → host MPEG decode → display,
//     plus recording writes
//   - Offloaded Client: NIC multicasts packets to GPU and Smart Disk by
//     peer DMA; the GPU decodes into its framebuffer; the disk's NFS
//     Offcode records to the NAS; the host does nothing
//
// The testbed mirrors §6.4: two 2.4 GHz Pentium IV hosts on a gigabit
// switch, a NAS holding the movie, 1 kB every 5 ms (200 kB/s).
package tivopc

import (
	"fmt"
	"sync"

	"hydra/internal/bus"
	"hydra/internal/core"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/hostos"
	"hydra/internal/mpeg"
	"hydra/internal/netsim"
	"hydra/internal/nfs"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/testbed"
)

// Stream parameters from §6.4.
const (
	ChunkBytes  = 1024
	ChunkPeriod = 5 * sim.Millisecond
	MediaPort   = 5004
	MoviePath   = "/movies/demo.mpg"
	RecordPath  = "/recordings/demo.rec"
)

// Application session names declared by SystemSpec: the streaming service
// and its client run as first-class sessions, and the server carries a
// second session for the competing background application of the
// contended scenario.
const (
	ServerAppName     = "tivo-server"
	ClientAppName     = "tivo-client"
	BackgroundAppName = "background"
)

// MovieConfig is the encoded stream profile.
func MovieConfig() mpeg.Config { return mpeg.Config{W: 320, H: 240, GOPSize: 12, BGap: 2} }

// movieCache holds the generated bitstream, grown on demand: encoding is
// deterministic, so longer prefixes are stable across runs. movieMu makes
// the cache safe for concurrent scenario replicas (testbed.Sweep).
var (
	movieMu    sync.Mutex
	movieCache []byte
)

// Movie returns at least minBytes of encoded stream.
func Movie(minBytes int) []byte {
	movieMu.Lock()
	defer movieMu.Unlock()
	cfg := MovieConfig()
	for len(movieCache) < minBytes {
		enc, err := mpeg.NewEncoder(cfg)
		if err != nil {
			panic(err)
		}
		// Estimate frames needed from current density, with headroom.
		frames := 512
		if len(movieCache) > 0 {
			perFrame := len(movieCache) / frameEstimate
			if perFrame > 0 {
				frames = minBytes/perFrame + 64
			}
		}
		for i := 0; i < frames; i++ {
			if err := enc.Add(mpeg.GenerateFrame(cfg, i)); err != nil {
				panic(err)
			}
		}
		enc.Flush()
		movieCache = enc.Bytes()
		frameEstimate = frames
	}
	return movieCache[:minBytes]
}

var frameEstimate = 512

// Testbed is the two-host-plus-NAS world of §6.4.
type Testbed struct {
	Eng *sim.Engine
	Net *netsim.Network
	// Tracer is the obs recorder attached by NewTestbedTraced (nil
	// otherwise).
	Tracer *obs.Tracer

	NASStore  *nfs.Store
	NASServer *nfs.Server

	Server        *hostos.Machine
	ServerBus     *bus.Bus
	ServerNIC     *device.Device
	ServerStation *netsim.Station
	ServerDepot   *depot.Depot
	ServerRT      *core.Runtime
	// ServerApp and BackgroundApp are the server runtime's two declared
	// sessions: the streaming service and the contended-scenario tenant.
	ServerApp     *core.App
	BackgroundApp *core.App

	Client            *hostos.Machine
	ClientBus         *bus.Bus
	ClientNIC         *device.Device
	ClientGPU         *device.Device
	ClientDisk        *device.Device
	ClientStation     *netsim.Station
	ClientDiskStation *netsim.Station
	ClientDepot       *depot.Depot
	ClientRT          *core.Runtime
	ClientApp         *core.App
}

// NASConfig models the evaluation NAS: an appliance with ~0.55 ms service
// time for small operations, ±30%. The jitter makes the host servers'
// synchronous NFS latency vary enough to smear their inter-send
// distributions across timer ticks, as Figure 9's histograms show.
func NASConfig() nfs.ServerConfig {
	return nfs.ServerConfig{
		BaseLatency: 550 * sim.Microsecond,
		PerByte:     4 * sim.Nanosecond,
		MaxRead:     8192,
		JitterFrac:  0.45,
	}
}

// SystemSpec is the declarative §6.4 topology: two Pentium IV hosts on a
// gigabit switch, a NAS appliance, a programmable NIC on the Video Server,
// and a NIC + GPU + Smart Disk (a second programmable controller whose
// firmware speaks NFS, §6.1) on the Video Client.
func SystemSpec(runFor sim.Time) testbed.Spec {
	needBytes := int(int64(runFor/ChunkPeriod))*ChunkBytes + 64*ChunkBytes
	return testbed.Spec{
		Name: "tivopc-§6.4",
		Net:  &testbed.NetSpec{Config: netsim.GigabitSwitched()},
		NAS: []testbed.NASSpec{{
			Station: "nas",
			Config:  NASConfig(),
			Files:   []testbed.FileSpec{{Path: MoviePath, Data: Movie(needBytes)}},
		}},
		Hosts: []testbed.HostSpec{
			{
				Name:     "server",
				Devices:  []device.Config{device.XScaleNIC("server-nic")},
				Stations: []string{"server"},
				Runtime:  &core.Config{},
				// Multi-tenant sessions as topology data: the streaming
				// service and a competing background application are
				// separate, individually accountable sessions on the same
				// runtime (the background one deploys only in the
				// contended scenario).
				Apps: []testbed.AppSpec{
					{Name: ServerAppName},
					{Name: BackgroundAppName},
				},
				IdleLoad: true,
			},
			{
				Name: "client",
				Devices: []device.Config{
					device.XScaleNIC("client-nic"),
					device.GPU("client-gpu"),
					device.SmartDisk("client-disk"),
				},
				Stations: []string{"client", "client-disk"},
				Runtime:  &core.Config{},
				Apps:     []testbed.AppSpec{{Name: ClientAppName}},
				IdleLoad: true,
			},
		},
	}
}

// NewTestbed builds the full §6.4 environment with the movie loaded on the
// NAS sized for runFor of streaming.
func NewTestbed(seed int64, runFor sim.Time) *Testbed {
	return NewTestbedTraced(seed, runFor, nil)
}

// NewTestbedTraced is NewTestbed with an optional obs trace config; when
// non-nil the recorder is attached before any component is built and the
// Tracer field is populated (cmd/tivopc -trace).
func NewTestbedTraced(seed int64, runFor sim.Time, trace *obs.Config) *Testbed {
	spec := SystemSpec(runFor)
	spec.Trace = trace
	sys, err := testbed.New(seed, spec)
	if err != nil {
		panic("tivopc: " + err.Error()) // static spec; cannot fail
	}
	return fromSystem(sys)
}

// fromSystem adapts a built SystemSpec topology to the flat Testbed handle
// the scenario drivers use.
func fromSystem(sys *testbed.System) *Testbed {
	nas := sys.NAS("nas")
	server := sys.Host("server")
	client := sys.Host("client")
	return &Testbed{
		Eng:               sys.Eng,
		Net:               sys.Net,
		Tracer:            sys.Tracer,
		NASStore:          nas.Store,
		NASServer:         nas.Server,
		Server:            server.Machine,
		ServerBus:         server.Bus,
		ServerNIC:         server.Device("server-nic"),
		ServerStation:     sys.Station("server"),
		ServerDepot:       server.Depot,
		ServerRT:          server.Runtime,
		ServerApp:         server.App(ServerAppName),
		BackgroundApp:     server.App(BackgroundAppName),
		Client:            client.Machine,
		ClientBus:         client.Bus,
		ClientNIC:         client.Device("client-nic"),
		ClientGPU:         client.Device("client-gpu"),
		ClientDisk:        client.Device("client-disk"),
		ClientStation:     sys.Station("client"),
		ClientDiskStation: sys.Station("client-disk"),
		ClientDepot:       client.Depot,
		ClientRT:          client.Runtime,
		ClientApp:         client.App(ClientAppName),
	}
}

// ArrivalRecorder captures packet arrival times at the client NIC, before
// any client-side processing — the paper measures "packet jitter ... at the
// client machine".
type ArrivalRecorder struct {
	Times []sim.Time
}

// Gaps returns inter-arrival times in milliseconds.
func (a *ArrivalRecorder) Gaps() []float64 {
	if len(a.Times) < 2 {
		return nil
	}
	out := make([]float64, 0, len(a.Times)-1)
	for i := 1; i < len(a.Times); i++ {
		out = append(out, (a.Times[i] - a.Times[i-1]).Milliseconds())
	}
	return out
}

func (tb *Testbed) String() string {
	return fmt.Sprintf("testbed(seed=%d, nas=%d files)", tb.Eng.Seed(), len(tb.NASStore.Paths()))
}
