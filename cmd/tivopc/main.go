// Command tivopc runs one TiVoPC configuration (§6.4) and reports jitter,
// CPU utilization and pipeline integrity.
//
// With -crash-nic N the offloaded server runs the NIC-failover scenario
// instead: the primary programmable NIC crashes N seconds in, the runtime
// health monitor detects it, and the Offcodes migrate to the standby NIC
// with the stream resuming from its checkpoint.
//
// With -background the offloaded server runs the contended scenario: a
// competing tenant in its own application session burns server CPU and
// pins memory while the stream runs, demonstrating session isolation and
// teardown reclamation.
//
// With -trace FILE the run records a virtual-time trace of every layer
// (channels, bus, host OS, deployment) and writes it as Chrome
// trace-event JSON — load it in Perfetto, or summarize it with
// cmd/hydra-trace. A .csv extension selects CSV instead.
//
// Usage:
//
//	tivopc [-server simple|sendfile|offloaded] [-client idle|user|offloaded]
//	       [-seconds N] [-seed N] [-crash-nic N] [-background] [-trace out.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/tivopc"
)

func main() {
	serverFlag := flag.String("server", "offloaded", "server variant: simple|sendfile|offloaded")
	clientFlag := flag.String("client", "idle", "client variant: idle|user|offloaded")
	seconds := flag.Int("seconds", 30, "simulated seconds")
	seed := flag.Int64("seed", 1, "simulation seed")
	crashNIC := flag.Int("crash-nic", 0, "crash the server NIC after N seconds (failover scenario; 0 = off)")
	background := flag.Bool("background", false, "run a competing background app session next to the offloaded server")
	tracePath := flag.String("trace", "", "record a virtual-time trace and write it here (.json Chrome trace-event, .csv CSV)")
	flag.Parse()

	if *crashNIC > 0 || *background {
		if *tracePath != "" {
			log.Fatal("-trace covers the plain streaming run; drop -crash-nic/-background")
		}
	}
	if *crashNIC > 0 {
		runFailover(*seed, sim.Time(*seconds)*sim.Second, sim.Time(*crashNIC)*sim.Second)
		return
	}
	if *background {
		runContended(*seed, sim.Time(*seconds)*sim.Second)
		return
	}

	serverKind := map[string]tivopc.ServerKind{
		"simple": tivopc.SimpleServer, "sendfile": tivopc.SendfileServer,
		"offloaded": tivopc.OffloadedServer,
	}[*serverFlag]
	if serverKind == 0 {
		log.Fatalf("unknown server %q", *serverFlag)
	}
	clientKind, ok := map[string]tivopc.ClientKind{
		"idle": tivopc.IdleClient, "user": tivopc.UserspaceClient,
		"offloaded": tivopc.OffloadedClient,
	}[*clientFlag]
	if !ok {
		log.Fatalf("unknown client %q", *clientFlag)
	}

	duration := sim.Time(*seconds) * sim.Second
	var trace *obs.Config
	if *tracePath != "" {
		trace = &obs.Config{}
	}
	tb := tivopc.NewTestbedTraced(*seed, duration, trace)
	client, err := tivopc.StartClient(tb, clientKind)
	if err != nil {
		log.Fatal(err)
	}
	server, err := tivopc.StartServer(tb, serverKind, duration)
	if err != nil {
		log.Fatal(err)
	}
	serverCPU := tb.Server.SampleUtilization(5 * sim.Second)
	clientCPU := tb.Client.SampleUtilization(5 * sim.Second)
	tb.Eng.Run(duration)

	if err := server.DeployErr(); err != nil {
		log.Fatal(err)
	}
	if err := client.DeployErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TiVoPC: %s → %s, %v simulated\n", serverKind, clientKind, duration)
	fmt.Printf("  chunks sent: %d\n", server.TotalSent())
	gaps := client.Arrivals.Gaps()
	if len(gaps) > 0 {
		sum := 0.0
		for _, g := range gaps {
			sum += g
		}
		fmt.Printf("  arrivals: %d, mean inter-arrival %.3f ms\n", len(gaps)+1, sum/float64(len(gaps)))
	}
	fmt.Printf("  server CPU: %s\n", summarize(serverCPU.Samples))
	fmt.Printf("  client CPU: %s\n", summarize(clientCPU.Samples))
	if clientKind == tivopc.UserspaceClient {
		fmt.Printf("  frames decoded on host: %d\n", client.FramesDecoded)
	}
	if clientKind == tivopc.OffloadedClient {
		if err := client.VerifyPlacement(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  frames decoded on GPU: %d (verified %d)\n",
			client.Decoder.Frames, client.Display.VerifiedOK)
		fmt.Printf("  recorded to NAS: %d bytes\n", client.DiskFile.Written)
		fmt.Printf("  energy: NIC %.2f J, GPU %.2f J, disk %.2f J\n",
			tb.ClientNIC.EnergyJoules(), tb.ClientGPU.EnergyJoules(), tb.ClientDisk.EnergyJoules())
	}
	if *tracePath != "" {
		if err := tb.Tracer.WriteFile(*tracePath); err != nil {
			log.Fatal(err)
		}
		if dropped := tb.Tracer.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "tivopc: trace ring overflowed, oldest %d records dropped\n", dropped)
		}
		fmt.Printf("  trace: %d records -> %s\n", tb.Tracer.Len(), *tracePath)
	}
}

// runFailover streams the offloaded server while the primary NIC crashes
// mid-run, then reports the recovery the runtime performed.
func runFailover(seed int64, duration, crashAt sim.Time) {
	if crashAt >= duration {
		log.Fatalf("-crash-nic %v is past the end of the %v run", crashAt, duration)
	}
	run, err := tivopc.RunFailoverScenario(seed, duration, tivopc.CrashPrimaryNIC(crashAt, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TiVoPC NIC failover: offloaded server, %v simulated, %s crashes at %v\n",
		duration, tivopc.PrimaryNIC, crashAt)
	for _, rec := range run.Recoveries {
		fmt.Printf("  %s failed: detected at %v, migrated %d offcodes in %v\n",
			rec.Device, rec.DetectedAt, len(rec.Stopped), rec.MigrationTime())
	}
	for _, lat := range run.DetectionLatencies() {
		fmt.Printf("  detection latency: %v\n", lat)
	}
	fmt.Printf("  chunks delivered: %d of %d expected (%.1f%% availability), ~%d lost in the outage\n",
		run.Delivered(), run.Expected, 100*run.Availability(), run.ChunksLost())
	post := run.PostRecoveryJitter()
	fmt.Printf("  post-recovery jitter: median %.2f ms, stddev %.4f ms (n=%d)\n",
		post.Median, post.StdDev, post.N)
	fmt.Printf("  stream resumed on: %s\n", run.FinalNIC)
}

// runContended streams the offloaded server while a second application
// session competes on the server host, then closes the tenant and reports
// what its teardown reclaimed.
func runContended(seed int64, duration sim.Time) {
	run, err := tivopc.RunContendedScenario(seed, duration)
	if err != nil {
		log.Fatal(err)
	}
	s := run.Stream.JitterSummary()
	fmt.Printf("TiVoPC contended: offloaded server + background session, %v simulated\n", duration)
	fmt.Printf("  chunks sent: %d\n", run.Stream.Sent)
	fmt.Printf("  stream jitter: median %.4f ms, stddev %.4f ms (device-timer level despite contention)\n",
		s.Median, s.StdDev)
	fmt.Printf("  background tenant: %d work periods in its own session\n", run.BackgroundIterations)
	fmt.Printf("  server CPU: %s\n", summarize(run.Stream.CPUSamples))
	fmt.Printf("  teardown reclaimed: %d bytes of pinned memory\n", run.ReclaimedBytes)
}

func summarize(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	min, max, sum := xs[0], xs[0], 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	return fmt.Sprintf("mean %.2f%% (min %.2f, max %.2f, %d windows)",
		sum/float64(len(xs)), min, max, len(xs))
}
