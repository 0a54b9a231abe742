package syscall

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"hydra/internal/bus"
	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/hostos"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	host *hostos.Machine
	b    *bus.Bus
	disk *device.Device
	vfs  *hostos.VFS
	svc  *Service
	iss  *Issuer
	ch   *channel.Channel
	dend *channel.Endpoint
}

func newRig(t testing.TB, prof Profile, res *resource.Node) *rig {
	t.Helper()
	eng := sim.NewEngine(42)
	host := hostos.New(eng, "host", hostos.PentiumIV())
	b := bus.New(eng, bus.DefaultConfig())
	disk := device.New(eng, host, b, device.SmartDisk("disk0"))
	vfs := hostos.NewVFS(host)

	hend := channel.HostEndpoint(host, "syscall:host")
	ch, err := channel.New(eng, b, prof.ChannelConfig(), hend)
	if err != nil {
		t.Fatal(err)
	}
	dend := channel.DeviceEndpoint(disk, "syscall:disk0")
	if err := ch.Connect(dend); err != nil {
		t.Fatal(err)
	}

	svc := NewService(vfs, prof)
	svc.Attach(hend)
	iss := NewIssuer(disk, prof, res)
	iss.Attach(dend)
	return &rig{eng: eng, host: host, b: b, disk: disk, vfs: vfs, svc: svc, iss: iss, ch: ch, dend: dend}
}

// batchedProfile is the batched asynchronous shape X11 centers on.
func batchedProfile() Profile {
	return Profile{Batch: 8, Coalesce: 5 * sim.Microsecond, Credits: 64, Workers: 2}
}

// TestFileSyscallRoundTrip drives a sync round-trip chain — clock, log,
// clock — where each call continues from the previous completion: the
// calls complete in order and the host clock advances across the chain.
func TestFileSyscallRoundTrip(t *testing.T) {
	r := newRig(t, batchedProfile(), nil)
	var clocks []int64
	clock := func(next func()) {
		err := r.iss.Issue(OpClock, ModeSync, nil, func(c *Completion) {
			if c.Err != "" || c.Op != OpClock {
				t.Fatalf("clock completion = %+v", c)
			}
			clocks = append(clocks, int64(c.Clock))
			next()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	clock(func() {
		err := r.iss.Issue(OpLog, ModeSync, []any{"device-written"}, func(c *Completion) {
			if c.Err != "" || c.Op != OpLog {
				t.Fatalf("log completion = %+v", c)
			}
			clock(func() {})
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	r.eng.RunAll()
	if len(clocks) != 2 || clocks[0] <= 0 || clocks[1] <= clocks[0] {
		t.Fatalf("host clocks = %v, want two increasing readings", clocks)
	}
	st := r.iss.Stats()
	if st.Issued != 3 || st.Completed != 3 || st.Errors != 0 {
		t.Fatalf("issuer stats = %+v", st)
	}
	hs := r.svc.Stats()
	if hs.Dispatched != 3 || hs.Executed != 3 || hs.RepliesSent != 3 {
		t.Fatalf("service stats = %+v", hs)
	}
	if r.iss.InFlight() != 0 {
		t.Fatalf("in-flight = %d after completion", r.iss.InFlight())
	}
	if r.vfs.LogLines() != 1 {
		t.Fatalf("log lines = %d", r.vfs.LogLines())
	}
}

// TestErrorAndClockAndMap: a host-side failure reaches the device as an
// error completion. A log call whose argument is not a string completes
// with Completion.Err set and counts in Stats.Errors, while a clock call
// beside it succeeds.
func TestErrorAndClockAndMap(t *testing.T) {
	r := newRig(t, batchedProfile(), nil)
	var logErr string
	r.iss.Issue(OpLog, ModeAsync, []any{int64(7)}, func(c *Completion) { logErr = c.Err })
	var clk int64
	r.iss.Issue(OpClock, ModeAsync, nil, func(c *Completion) { clk = int64(c.Clock) })
	r.eng.RunAll()
	if !strings.Contains(logErr, "bad argument vector") {
		t.Fatalf("malformed log completed with %q, want a bad-argument error", logErr)
	}
	if clk == 0 {
		t.Fatal("clock returned 0")
	}
	if st := r.iss.Stats(); st.Errors != 1 || st.Completed != 2 {
		t.Fatalf("issuer stats = %+v, want 2 completed, 1 error", st)
	}
	if r.vfs.LogLines() != 0 {
		t.Fatalf("malformed log counted: %d lines", r.vfs.LogLines())
	}
}

// The file, socket and host-memory ops are gone: a wire request for one
// of them is answered with an error completion, not executed.
func TestServiceRejectsRemovedOp(t *testing.T) {
	r := newRig(t, batchedProfile(), nil)
	var replies []*call.Reply
	r.dend.InstallCallHandler(func(b []byte) {
		rep, err := call.UnmarshalReply(b)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, rep)
	})
	id := packID(1, ModeAsync)
	wire, err := call.Marshal(&call.Call{Iface: IfaceGUID, Method: "open", Args: []any{"/data/blob", true}, ReturnDesc: id})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dend.Write(wire); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if len(replies) != 1 || replies[0].ReturnDesc != id || replies[0].Err != "unknown syscall open" {
		t.Fatalf("replies = %+v, want one \"unknown syscall open\" error for id %#x", replies, id)
	}
	if hs := r.svc.Stats(); hs.Executed != 0 || hs.RepliesSent != 1 {
		t.Fatalf("service stats = %+v, want nothing executed, one reply", hs)
	}
}

func TestFireForgetSkipsCompletion(t *testing.T) {
	r := newRig(t, batchedProfile(), nil)
	for i := 0; i < 5; i++ {
		if err := r.iss.Log("line", ModeFireForget); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.iss.Issue(OpClock, ModeFireForget, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if r.vfs.LogLines() != 5 {
		t.Fatalf("log lines = %d", r.vfs.LogLines())
	}
	st, hs := r.iss.Stats(), r.svc.Stats()
	if st.FireForget != 6 || st.Completed != 0 {
		t.Fatalf("issuer stats = %+v", st)
	}
	if hs.Executed != 6 || hs.RepliesSent != 0 {
		t.Fatalf("service stats = %+v", hs)
	}
	if r.iss.InFlight() != 0 {
		t.Fatalf("in-flight = %d", r.iss.InFlight())
	}
}

// The credit quota bounds in-flight calls: with a resource.Node limit of
// 2, a third concurrent issue is denied with a *resource.QuotaError, and
// credits release as completions arrive.
func TestCreditQuota(t *testing.T) {
	root := resource.NewRoot("app")
	node, err := root.NewChild("offcode", nil)
	if err != nil {
		t.Fatal(err)
	}
	node.SetLimit(QuotaSyscalls, 2)
	r := newRig(t, batchedProfile(), node)
	if err := r.iss.Issue(OpClock, ModeAsync, nil, func(*Completion) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.iss.Issue(OpClock, ModeAsync, nil, func(*Completion) {}); err != nil {
		t.Fatal(err)
	}
	err = r.iss.Issue(OpClock, ModeAsync, nil, func(*Completion) {})
	var qe *resource.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("third issue = %v, want *resource.QuotaError", err)
	}
	if st := r.iss.Stats(); st.CreditDenied != 1 {
		t.Fatalf("credit denied = %d", st.CreditDenied)
	}
	r.eng.RunAll()
	// Credits released; issuing works again.
	if err := r.iss.Issue(OpClock, ModeAsync, nil, func(*Completion) {}); err != nil {
		t.Fatalf("issue after release: %v", err)
	}
	r.eng.RunAll()
	if got := node.Usage(QuotaSyscalls); got != 0 {
		t.Fatalf("quota usage = %d after completions", got)
	}
}

// Checkpoint/restore carries in-flight syscalls across an issuer swap:
// the restored issuer re-sends them, the service answers duplicates from
// its reply cache without re-executing, and each call completes exactly
// once (via the default handler, since closures don't survive a swap).
func TestCheckpointRestoreExactlyOnce(t *testing.T) {
	r := newRig(t, batchedProfile(), nil)
	// Issue 3 calls and let them fully execute host-side, but stop the
	// engine before... simplest: run to completion of host exec while the
	// old issuer is still attached, then snapshot at a point where calls
	// were still pending. Instead: issue and checkpoint immediately —
	// nothing has run yet, so all 3 are in flight.
	for i := 0; i < 3; i++ {
		if err := r.iss.Log("pending", ModeAsync); err != nil {
			t.Fatal(err)
		}
	}
	ck := r.iss.Checkpoint()
	if r.iss.InFlight() != 3 {
		t.Fatalf("in-flight = %d", r.iss.InFlight())
	}

	// The swap: a fresh issuer restores the checkpoint and re-attaches to
	// the same endpoint (the runtime re-fires ChannelConnected with the
	// surviving endpoint during a hot-swap).
	iss2 := NewIssuer(r.disk, batchedProfile(), nil)
	if err := iss2.Restore(ck); err != nil {
		t.Fatal(err)
	}
	completed := 0
	iss2.SetDefaultHandler(func(c *Completion) {
		completed++
		if c.Err != "" {
			t.Fatalf("restored completion error: %s", c.Err)
		}
	})
	iss2.Attach(r.dend) // reissues the 3 in-flight calls
	r.eng.RunAll()

	if completed != 3 {
		t.Fatalf("restored completions = %d, want exactly 3", completed)
	}
	st := iss2.Stats()
	if st.Reissued != 3 {
		t.Fatalf("reissued = %d", st.Reissued)
	}
	if iss2.InFlight() != 0 {
		t.Fatalf("in-flight = %d after restore+completion", iss2.InFlight())
	}
	// The host executed each id exactly once: 3 originals + 3 duplicates
	// dispatched, but dedup answered the second copies from the cache.
	hs := r.svc.Stats()
	if hs.Executed != 3 || hs.Deduped != 3 {
		t.Fatalf("service stats = %+v (want 3 executed, 3 deduped)", hs)
	}
	// The old issuer's handler also saw completions for the original
	// requests; the new issuer's orphan counter absorbed the duplicates it
	// received after its pending entries completed.
	if r.vfs.LogLines() != 3 {
		t.Fatalf("log lines = %d, want exactly-once execution", r.vfs.LogLines())
	}
}

// A restored call's completion can beat its own reissue: here the swap
// happens inside the delivery of the original replies, so the restored
// entries complete while their reissue sends are still queued on the
// device. The default handler's new fire-and-forget calls must not take
// over those records: each reissue still carries its restored request
// (the host answers it from the reply cache and the issuer counts an
// orphan), and every credit is released exactly once.
func TestCompletionBeforeReissueSend(t *testing.T) {
	r := newRig(t, batchedProfile(), nil)
	for i := 0; i < 3; i++ {
		if err := r.iss.Log("pending", ModeAsync); err != nil {
			t.Fatal(err)
		}
	}
	iss2 := NewIssuer(r.disk, batchedProfile(), nil)
	restored := 0
	iss2.SetDefaultHandler(func(c *Completion) {
		restored++
		if err := iss2.Log("after", ModeFireForget); err != nil {
			t.Fatal(err)
		}
	})
	r.dend.InstallCallHandler(func(data []byte) {
		// The first original reply triggers the swap; Attach replaces
		// this handler for the rest of the group.
		if err := iss2.Restore(r.iss.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		iss2.Attach(r.dend)
		iss2.onCompletion(data)
	})
	r.eng.RunAll()

	st := iss2.Stats()
	if restored != 3 || st.Reissued != 3 || st.Orphaned != 3 {
		t.Fatalf("restored completions %d, reissued %d, orphaned %d; want 3 each", restored, st.Reissued, st.Orphaned)
	}
	if iss2.InFlight() != 0 {
		t.Fatalf("in-flight = %d after every call finished", iss2.InFlight())
	}
	hs := r.svc.Stats()
	if hs.Executed != 6 || hs.Deduped != 3 || r.vfs.LogLines() != 6 {
		t.Fatalf("service stats = %+v, log lines %d; want 6 executed, 3 deduped, 6 lines", hs, r.vfs.LogLines())
	}
}

// Batching amortizes the host's per-syscall interrupt cost: the same call
// volume with Batch 16 must raise far fewer interrupts (host interrupts and
// device doorbells, as the channel counts them) and burn measurably fewer
// host cycles than per-call dispatch.
func TestBatchingAmortizesHostCost(t *testing.T) {
	const total = 400
	run := func(prof Profile) (sim.Time, uint64) {
		r := newRig(t, prof, nil)
		issued, completed := 0, 0
		var issue func()
		issue = func() {
			for issued < total && r.iss.InFlight() < prof.Credits {
				issued++
				if err := r.iss.Issue(OpLog, ModeAsync, []any{"x"}, func(*Completion) {
					completed++
					issue()
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		issue()
		r.eng.RunAll()
		if completed != total {
			t.Fatalf("completed %d/%d with profile %+v", completed, total, prof)
		}
		return r.host.BusyTime(), r.ch.Stats().Interrupts
	}
	blockBusy, blockIRQ := run(BlockingProfile())
	// The coalesce window must cover per-call service time (≈3 µs of
	// context switch per dispatched segment) or replies trickle out one
	// per flush and the lock-step chain degenerates to per-call batches.
	batchBusy, batchIRQ := run(Profile{Batch: 16, Coalesce: 50 * sim.Microsecond, Credits: 64, Workers: 1})
	if batchIRQ*4 > blockIRQ {
		t.Fatalf("interrupts: batched %d vs blocking %d — amortization missing", batchIRQ, blockIRQ)
	}
	if batchBusy*2 > blockBusy {
		t.Fatalf("host busy: batched %v vs blocking %v — no cycle win", batchBusy, blockBusy)
	}
}

// dedupRig is a plane whose device endpoint records the replies the host
// sends instead of handing them to the issuer, plus the wire bytes of one
// async log request the test writes by hand.
func dedupRig(t *testing.T) (r *rig, req []byte, replies *[]*call.Reply) {
	r = newRig(t, batchedProfile(), nil)
	replies = new([]*call.Reply)
	r.dend.InstallCallHandler(func(b []byte) {
		rep, err := call.UnmarshalReply(b)
		if err != nil {
			t.Fatal(err)
		}
		*replies = append(*replies, rep)
	})
	req, err := call.Marshal(&call.Call{Iface: IfaceGUID, Method: OpLog.String(), Args: []any{"once"}, ReturnDesc: packID(1, ModeAsync)})
	if err != nil {
		t.Fatal(err)
	}
	return r, req, replies
}

// A duplicate that arrives while its call is still in the dispatcher is
// dropped: the original's reply answers both, and nothing runs twice.
func TestServiceDropsDuplicateOfRunningCall(t *testing.T) {
	r, req, replies := dedupRig(t)
	for j := 0; j < 2; j++ {
		if err := r.dend.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	hs := r.svc.Stats()
	if hs.Dispatched != 2 || hs.Executed != 1 || hs.Deduped != 1 || hs.RepliesSent != 1 {
		t.Fatalf("service stats = %+v, want 2 dispatched, 1 executed, 1 deduped, 1 reply", hs)
	}
	if len(*replies) != 1 || r.vfs.LogLines() != 1 {
		t.Fatalf("%d replies, %d log lines; want 1 each", len(*replies), r.vfs.LogLines())
	}
}

// A duplicate of a finished call is answered from the reply cache
// without running the call again.
func TestServiceAnswersDuplicateOfFinishedCall(t *testing.T) {
	r, req, replies := dedupRig(t)
	if err := r.dend.Write(req); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	before := r.svc.Stats()
	if err := r.dend.Write(req); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	hs := r.svc.Stats()
	if hs.Executed != before.Executed || hs.Deduped != before.Deduped+1 || hs.RepliesSent != before.RepliesSent+1 {
		t.Fatalf("service stats %+v → %+v, want one more dedup and reply, no execution", before, hs)
	}
	if len(*replies) != 2 || !reflect.DeepEqual((*replies)[0], (*replies)[1]) || r.vfs.LogLines() != 1 {
		t.Fatalf("replies %+v, %d log lines; want two equal replies, 1 line", *replies, r.vfs.LogLines())
	}
}

// Fire-and-forget calls are never reissued, so they take no reply cache
// slot, neither while they run nor after.
func TestFireForgetTakesNoCacheSlot(t *testing.T) {
	r := newRig(t, batchedProfile(), nil)
	for j := 0; j < 3; j++ {
		if err := r.iss.Log("line", ModeFireForget); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if hs := r.svc.Stats(); hs.Executed != 3 {
		t.Fatalf("service stats = %+v, want 3 executed", hs)
	}
	for _, c := range r.svc.replies {
		if c == nil {
			continue
		}
		for k, o := range c {
			if o != (outcome{}) {
				t.Fatalf("reply cache slot %d holds %+v", k, o)
			}
		}
	}
}

// The reply cache deduplicates only the last replyCacheSize sequences, so
// an issuer never holds more calls in flight than that, whatever its
// profile or its credit quota node allows: one more would let a reissued
// call run twice.
func TestCreditsCappedByReplyCache(t *testing.T) {
	for _, c := range []struct {
		name  string
		quota int64 // a credit quota node's limit; 0 attaches none
	}{{"profile", 0}, {"node5000", 5000}} {
		quota := c.quota
		t.Run(c.name, func(t *testing.T) {
			prof := batchedProfile()
			prof.Credits = 2 * replyCacheSize
			var node *resource.Node
			if quota > 0 {
				node = resource.NewRoot("app")
				node.SetLimit(QuotaSyscalls, quota)
			}
			r := newRig(t, prof, node)
			for j := 0; j < replyCacheSize; j++ {
				if err := r.iss.Issue(OpClock, ModeAsync, nil, nil); err != nil {
					t.Fatalf("issue %d: %v", j, err)
				}
			}
			if err := r.iss.Issue(OpClock, ModeAsync, nil, nil); !errors.Is(err, ErrNoCredits) {
				t.Fatalf("issue past the reply cache = %v, want ErrNoCredits", err)
			}
			if node != nil && node.Usage(QuotaSyscalls) != replyCacheSize {
				t.Fatalf("refused issue left quota usage at %d, want %d", node.Usage(QuotaSyscalls), replyCacheSize)
			}
			r.eng.RunAll()
			if st := r.iss.Stats(); st.Completed != replyCacheSize || r.iss.InFlight() != 0 {
				t.Fatalf("issuer stats = %+v, %d in flight", st, r.iss.InFlight())
			}
		})
	}
}
