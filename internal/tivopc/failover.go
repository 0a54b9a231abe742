package tivopc

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/device"
	"hydra/internal/faults"
	"hydra/internal/sim"
	"hydra/internal/stats"
	"hydra/internal/testbed"
)

// NIC failover scenario: the §6.4 world with a standby programmable NIC on
// the Video Server and the runtime health monitor watching the server's
// devices. A fault schedule crashes the primary NIC mid-stream; the monitor
// detects the silence, and the runtime migrates the Server/File/Broadcast
// Offcodes onto the standby NIC with the File's stream offset carried over,
// so the client's stream resumes mid-movie after a short outage.

// Server NIC names in the failover topology.
const (
	PrimaryNIC = "server-nic"
	StandbyNIC = "server-nic2"
)

// FailoverSpec is SystemSpec plus a standby NIC and a health monitor on the
// Video Server, with the given fault schedule armed.
func FailoverSpec(runFor sim.Time, sched faults.Schedule) testbed.Spec {
	spec := SystemSpec(runFor)
	spec.Name = "tivopc-failover"
	for i := range spec.Hosts {
		if spec.Hosts[i].Name == "server" {
			spec.Hosts[i].Devices = append(spec.Hosts[i].Devices, device.XScaleNIC(StandbyNIC))
			spec.Hosts[i].Monitor = true
		}
	}
	spec.Faults = sched
	return spec
}

// CrashPrimaryNIC is the canonical single-fault schedule: the primary
// server NIC dies at the given time (and stays dead unless restartAfter is
// positive).
func CrashPrimaryNIC(at, restartAfter sim.Time) faults.Schedule {
	return faults.Schedule{{At: at, Kind: faults.DeviceCrash, Device: PrimaryNIC, Duration: restartAfter}}
}

// FailoverRun is the measured outcome of one NIC-failover scenario.
type FailoverRun struct {
	// Arrivals are client-side packet arrival times.
	Arrivals []sim.Time
	// Sent counts chunks the streamer transmitted.
	Sent int
	// Expected is the chunk count a fault-free run would deliver at the
	// nominal rate (one per ChunkPeriod).
	Expected int
	// Faults is the injector's log (what actually struck, when).
	Faults []faults.Record
	// Recoveries is the server runtime's recovery history.
	Recoveries []*core.Recovery
	// FinalNIC is where tivo.Server ended up.
	FinalNIC string
}

// Delivered reports chunks that reached the client.
func (r *FailoverRun) Delivered() int { return len(r.Arrivals) }

// Availability is the delivered fraction of the nominal stream.
func (r *FailoverRun) Availability() float64 {
	if r.Expected == 0 {
		return 0
	}
	return float64(r.Delivered()) / float64(r.Expected)
}

// Gaps returns inter-arrival times in milliseconds.
func (r *FailoverRun) Gaps() []float64 {
	rec := ArrivalRecorder{Times: r.Arrivals}
	return rec.Gaps()
}

// GapsAfter returns inter-arrival gaps (ms) between arrivals at or after t
// — the post-recovery jitter distribution when t is the last MigrationEnd.
func (r *FailoverRun) GapsAfter(t sim.Time) []float64 {
	var times []sim.Time
	for _, at := range r.Arrivals {
		if at >= t {
			times = append(times, at)
		}
	}
	rec := ArrivalRecorder{Times: times}
	return rec.Gaps()
}

// PostRecoveryJitter summarizes the stream's jitter after the last
// completed recovery (the whole run when nothing failed).
func (r *FailoverRun) PostRecoveryJitter() stats.Summary {
	var last sim.Time
	for _, rec := range r.Recoveries {
		if rec.Complete() && rec.MigrationEnd > last {
			last = rec.MigrationEnd
		}
	}
	return stats.Summarize(r.GapsAfter(last))
}

// DetectionLatencies pairs each recovery with the device fault that caused
// it: time from injection to the monitor's declaration.
func (r *FailoverRun) DetectionLatencies() []sim.Time {
	// Faults and recoveries are both chronological; match each recovery to
	// the most recent preceding crash of its device.
	var out []sim.Time
	for _, rec := range r.Recoveries {
		var faultAt sim.Time = -1
		for _, f := range r.Faults {
			if f.Target == rec.Device && f.At <= rec.DetectedAt &&
				f.Kind == faults.DeviceCrash {
				faultAt = f.At
			}
		}
		if faultAt >= 0 {
			out = append(out, rec.DetectedAt-faultAt)
		}
	}
	return out
}

// ChunksLost estimates stream chunks that never arrived because of
// outages: the sum, over inter-arrival gaps longer than twice the nominal
// period, of the whole periods the gap spans.
func (r *FailoverRun) ChunksLost() int {
	lost := 0
	nominal := ChunkPeriod.Milliseconds()
	for _, gap := range r.Gaps() {
		if gap > 2*nominal {
			lost += int(gap/nominal) - 1
		}
	}
	return lost
}

// RunFailoverScenario streams the §6.4 offloaded server under the given
// fault schedule and reports what the client saw and how the runtime
// recovered. An empty schedule is the fault-free baseline.
func RunFailoverScenario(seed int64, duration sim.Time, sched faults.Schedule) (*FailoverRun, error) {
	sys, err := testbed.New(seed, FailoverSpec(duration, sched))
	if err != nil {
		return nil, err
	}
	tb := fromSystem(sys)

	client, err := StartClient(tb, IdleClient)
	if err != nil {
		return nil, err
	}
	harness, err := StartServer(tb, OffloadedServer, duration)
	if err != nil {
		return nil, err
	}
	tb.Eng.Run(duration)

	if err := harness.DeployErr(); err != nil {
		return nil, err
	}
	run := &FailoverRun{
		Arrivals:   client.Arrivals.Times,
		Sent:       harness.TotalSent(),
		Expected:   int(duration / ChunkPeriod),
		Recoveries: tb.ServerRT.Recoveries(),
	}
	if sys.Injector != nil {
		run.Faults = sys.Injector.Log()
	}
	h, err := tb.ServerRT.GetOffcode("tivo.Server")
	if err != nil {
		return nil, fmt.Errorf("tivopc: failover lost the streamer: %w", err)
	}
	if h.Device() == nil {
		return nil, fmt.Errorf("tivopc: tivo.Server ended on the host")
	}
	if h.App() != tb.ServerApp {
		return nil, fmt.Errorf("tivopc: migration moved tivo.Server out of the %s session", ServerAppName)
	}
	run.FinalNIC = h.Device().Name()
	if run.Delivered() < 10 {
		return nil, fmt.Errorf("tivopc: failover run delivered only %d chunks", run.Delivered())
	}
	for _, rec := range run.Recoveries {
		if rec.Err != nil {
			return nil, fmt.Errorf("tivopc: recovery for %s failed: %w", rec.Device, rec.Err)
		}
	}
	return run, nil
}
