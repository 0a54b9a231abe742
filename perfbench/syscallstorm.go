package main

import (
	"fmt"
	"math/rand"

	"hydra/internal/device"
	"hydra/internal/sim"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
)

// The syscall-storm workload is the X11 top-rate cell: three device
// planes, each on its own host engine, offered 400k host-clock syscalls/s
// apiece: one arrival per 2.5 µs pacing slot, at a seeded uniform offset
// inside the slot. The blocking plane (sync, one
// credit) is a caller that waits for each reply: arrivals that find it
// still waiting are not attempts. The batched planes (async, batch 8 and
// batch 32) issue every arrival. One window worker. Unit: one completed
// syscall.
const (
	ssPeriod  = sim.Second / 400_000
	ssSpan    = 100 * sim.Millisecond
	ssDrain   = 2 * sim.Millisecond
	ssSlice   = 500 * sim.Microsecond
	ssLook    = 500 * sim.Microsecond
	ssWorkers = 1
)

type ssPlane struct {
	name string
	mode syscall.Mode
	prof syscall.Profile
}

func ssPlanes() []ssPlane {
	return []ssPlane{
		{name: "blocking", mode: syscall.ModeSync, prof: syscall.BlockingProfile()},
		{name: "batch8", mode: syscall.ModeAsync, prof: syscall.Profile{
			Batch: 8, Coalesce: 50 * sim.Microsecond, Credits: 64, Workers: 1}},
		{name: "batch32", mode: syscall.ModeAsync, prof: syscall.Profile{
			Batch: 32, Coalesce: 200 * sim.Microsecond, Credits: 256, Workers: 1, RingEntries: 1024}},
	}
}

type syscallStorm struct {
	sys      *testbed.System
	group    *sim.Group
	planes   []ssPlane
	failed   uint64 // issues the issuer refused
	now, end sim.Time
}

func buildSyscallStorm(seed int64, sp *spans) (instance, error) {
	w := &syscallStorm{planes: ssPlanes(), end: ssSpan + ssDrain}
	spec := testbed.Spec{Name: "perfbench-syscall-storm", EnginePerHost: true}
	for _, p := range w.planes {
		spec.Hosts = append(spec.Hosts, testbed.HostSpec{
			Name:     "h-" + p.name,
			Devices:  []device.Config{device.SmartDisk("d-" + p.name)},
			Syscalls: &testbed.SyscallSpec{Profile: p.prof},
		})
	}
	var err error
	sp.setup(spanBuild, func() { w.sys, err = testbed.New(seed, spec) })
	if err != nil {
		return nil, fmt.Errorf("syscall-storm: build: %w", err)
	}
	var engines []*sim.Engine
	for _, hs := range w.sys.Hosts() {
		engines = append(engines, hs.Eng)
	}
	if w.group, err = sim.NewGroup(engines, ssLook); err != nil {
		return nil, fmt.Errorf("syscall-storm: %w", err)
	}
	rec := sp.recorder()
	for i, p := range w.planes {
		iss := w.sys.Hosts()[i].Syscalls[0].Issuer
		eng := w.sys.Hosts()[i].Eng
		mode, blocking := p.mode, p.mode == syscall.ModeSync
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		var slot sim.Time // the pacing slot of the arrival being fired
		var arrive func()
		arrive = func() {
			if !blocking || iss.InFlight() == 0 {
				start := rec.start()
				err := iss.Issue(syscall.OpClock, mode, nil, func(*syscall.Completion) {})
				rec.done(spanIssue, start)
				if err != nil {
					w.failed++
				}
			}
			if slot += ssPeriod; slot < ssSpan {
				eng.At(slot+sim.Time(rng.Int63n(int64(ssPeriod))), arrive)
			}
		}
		eng.At(sim.Time(rng.Int63n(int64(ssPeriod))), arrive)
	}
	return w, nil
}

func (w *syscallStorm) step() bool {
	if w.now >= w.end {
		return false
	}
	w.now = min(w.now+ssSlice, w.end)
	w.group.Run(w.now, ssWorkers)
	return true
}

func (w *syscallStorm) drain() { w.group.Settle() }

// check verifies that every issued syscall was executed on the host and
// completed on the device exactly once.
func (w *syscallStorm) check() (*outcome, error) {
	out := &outcome{attempted: w.failed, failed: w.failed}
	d := newDigest()
	for i, p := range w.planes {
		hs := w.sys.Hosts()[i]
		plane := hs.Syscalls[0]
		st := plane.Issuer.Stats()
		st.Add(plane.Service.Stats())
		if st.Issued == 0 || st.Executed != st.Issued || st.Completed != st.Issued {
			return nil, fmt.Errorf("syscall-storm: %s plane issued %d, executed %d, completed %d",
				p.name, st.Issued, st.Executed, st.Completed)
		}
		out.units += st.Completed
		out.attempted += st.Issued
		out.counts.Issued += st.Issued
		out.counts.Denied += st.CreditDenied
		out.counts.Events += hs.Eng.Diag().Fired
		out.counts.addChannel(plane.Channel.Stats())
		out.addHost(hs.Machine, hs.Bus)
		lats := plane.Issuer.Latencies()
		us := make([]float64, len(lats))
		for j, l := range lats {
			us[j] = float64(l) / float64(sim.Microsecond)
		}
		out.lats = append(out.lats, us...)
		d.add(st.Issued, st.Executed, st.Completed, plane.Channel.Stats().Interrupts)
		d.addFloats(us)
	}
	out.digest = d.sum()
	return out, nil
}
