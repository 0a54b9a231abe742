package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hydra/internal/channel"
	"hydra/internal/guid"
	"hydra/internal/objfile"
	"hydra/internal/sim"
)

// counterOffcode is a channel-served behaviour that counts and records the
// payloads it receives, carries its count across swaps via the
// Checkpointer contract, and tags every delivery with its version so a
// test can tell which instance served which message.
type counterOffcode struct {
	version int
	rec     *swapRecorder
	count   int
	initErr error
}

// swapRecorder is the cross-instance observation point shared by every
// counterOffcode a test instantiates.
type swapRecorder struct {
	recv     []string // "v<N>:<payload>" in delivery order
	restored [][]byte // every state handed to Restore
	last     *counterOffcode
}

func (c *counterOffcode) Initialize(ctx *Context) error { return c.initErr }
func (c *counterOffcode) Start() error                  { return nil }
func (c *counterOffcode) Stop() error                   { return nil }

func (c *counterOffcode) ChannelConnected(ep *channel.Endpoint) {
	ep.InstallCallHandler(func(d []byte) {
		c.count++
		c.rec.recv = append(c.rec.recv, fmt.Sprintf("v%d:%s", c.version, d))
	})
}

func (c *counterOffcode) Checkpoint() []byte { return []byte{byte(c.count)} }
func (c *counterOffcode) Restore(b []byte) error {
	c.rec.restored = append(c.rec.restored, append([]byte(nil), b...))
	if len(b) > 0 {
		c.count = int(b[0])
	}
	return nil
}

// stockCounter registers a counterOffcode version under path: same bind
// name across versions (the replacement contract), distinct GUIDs.
func stockCounter(t *testing.T, r *rig, rec *swapRecorder, path string, g uint64, version int, initErr error) {
	t.Helper()
	odfDoc := fmt.Sprintf(`<offcode>
  <package><bindname>svc.Counter</bindname><GUID>%d</GUID></package>
  <targets>
    <device-class><name>Network Device</name></device-class>
    <host-fallback>true</host-fallback>
  </targets>
</offcode>`, g)
	r.depot.PutFile(path, []byte(odfDoc))
	obj := objfile.Synthesize("svc.Counter", guid.GUID(g), 512, []string{"hydra.Heap.Alloc", "hydra.Channel.Write"})
	if err := r.depot.RegisterObject(obj); err != nil {
		t.Fatal(err)
	}
	if err := r.depot.RegisterFactory(guid.GUID(g), func() any {
		rec.last = &counterOffcode{version: version, rec: rec, initErr: initErr}
		return rec.last
	}); err != nil {
		t.Fatal(err)
	}
}

// The tentpole hot-swap property: Replace swaps a live Offcode under
// channel traffic with zero lost messages — writes that land during the
// quiesce window are held and replayed to the replacement, in order,
// exactly once — and the checkpointed count carries across so the new
// instance continues where the old one stopped.
func TestReplaceHotSwapZeroLoss(t *testing.T) {
	r := newRig(t, Config{})
	rec := &swapRecorder{}
	stockCounter(t, r, rec, "/offcodes/counter.v1.odf", 500, 1, nil)
	stockCounter(t, r, rec, "/offcodes/counter.v2.odf", 501, 2, nil)

	h := deploy(t, r, "/offcodes/counter.v1.odf")
	oldDev := h.Device()
	appEnd, ch, _, err := r.rt.DefaultApp().CreateChannel(channel.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-swap traffic: the old instance serves it.
	for i := 0; i < 3; i++ {
		if err := appEnd.Write([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if got := len(rec.recv); got != 3 {
		t.Fatalf("pre-swap deliveries = %d, want 3", got)
	}

	// Swap under traffic: Replace pauses the attached endpoint immediately
	// (same virtual instant), so writes issued now arrive inside the swap
	// window and must be held, then replayed to v2.
	var res *MutationResult
	var rerr error
	r.rt.DefaultApp().Replace("svc.Counter", "/offcodes/counter.v2.odf",
		func(m *MutationResult, err error) { res, rerr = m, err })
	for i := 3; i < 8; i++ {
		if err := appEnd.Write([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if res == nil {
		t.Fatal("no mutation result")
	}
	nh, err := r.rt.GetOffcode("svc.Counter")
	if err != nil || nh == h {
		t.Fatalf("live svc.Counter after the swap = %v, %v", nh, err)
	}
	// Placement pinned: the replacement landed where the original ran, so
	// the surviving channel endpoints stayed valid.
	if nh.Device() != oldDev {
		t.Fatalf("replacement on %v, want pinned to %v", nh.Device(), oldDev)
	}
	if res.Replayed != 5 {
		t.Fatalf("Replayed = %d, want 5 (the swap-window writes)", res.Replayed)
	}

	// Post-swap traffic goes straight to v2.
	for i := 8; i < 10; i++ {
		if err := appEnd.Write([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()

	// Zero loss, exactly once, in order: every write delivered, the first
	// three by v1, the rest by v2.
	if len(rec.recv) != 10 {
		t.Fatalf("deliveries = %v", rec.recv)
	}
	for i, got := range rec.recv {
		v := 1
		if i >= 3 {
			v = 2
		}
		want := fmt.Sprintf("v%d:m%02d", v, i)
		if got != want {
			t.Fatalf("recv[%d] = %q, want %q (full: %v)", i, got, want, rec.recv)
		}
	}
	// The checkpoint carried the count: v2 restored 3 and finished at 10.
	if len(rec.restored) != 1 || len(rec.restored[0]) != 1 || rec.restored[0][0] != 3 {
		t.Fatalf("restored = %v, want [[3]]", rec.restored)
	}
	if rec.last.count != 10 {
		t.Fatalf("final count = %d, want 10", rec.last.count)
	}

	// The channel's ledger reconciles: everything sent was delivered, the
	// held messages counted as replayed, nothing undelivered.
	st := ch.Stats()
	if st.Sent != 10 || st.Delivered != 10 || st.Undelivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Replayed != 5 {
		t.Fatalf("stats.Replayed = %d, want 5", st.Replayed)
	}
}

// A mid-swap failure (the replacement's Initialize fails) must roll back
// to the pre-mutation graph: the original ODF is re-instantiated on its
// old placement, the staged checkpoint feeds back in, and the quiesced
// channels resume against the restored instance — still zero loss.
func TestReplaceRollsBackOnFailure(t *testing.T) {
	r := newRig(t, Config{})
	rec := &swapRecorder{}
	stockCounter(t, r, rec, "/offcodes/counter.v1.odf", 500, 1, nil)
	stockCounter(t, r, rec, "/offcodes/counter.v2.odf", 501, 2, errors.New("v2 refuses to boot"))

	h := deploy(t, r, "/offcodes/counter.v1.odf")
	oldDev := h.Device()
	appEnd, ch, _, err := r.rt.DefaultApp().CreateChannel(channel.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appEnd.Write([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()

	var res *MutationResult
	var rerr error
	r.rt.DefaultApp().Replace("svc.Counter", "/offcodes/counter.v2.odf",
		func(m *MutationResult, err error) { res, rerr = m, err })
	for i := 3; i < 6; i++ {
		if err := appEnd.Write([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if rerr == nil || !strings.Contains(rerr.Error(), "v2 refuses to boot") {
		t.Fatalf("err = %v", rerr)
	}
	if res == nil {
		t.Fatal("no mutation result")
	}

	// The bind is live again: a fresh v1 instance on the old placement.
	oh, err := r.rt.GetOffcode("svc.Counter")
	if err != nil {
		t.Fatal(err)
	}
	if oh.state != StateStarted || oh.Device() != oldDev {
		t.Fatalf("restored handle: state %v dev %v", oh.state, oh.Device())
	}
	if rec.last.version != 1 {
		t.Fatalf("live behaviour is v%d, want the restored v1", rec.last.version)
	}
	// Its record still points at the original ODF — a later failover
	// redeploys v1, not the ODF that failed.
	if len(r.rt.roots) != 1 || r.rt.roots[0].path != "/offcodes/counter.v1.odf" {
		t.Fatalf("roots = %+v", r.rt.roots)
	}
	// The checkpoint round-tripped into the restored instance: one Restore
	// of count 3 (v2's Initialize failed before any Restore could run).
	if len(rec.restored) != 1 || rec.restored[0][0] != 3 {
		t.Fatalf("restored = %v, want [[3]]", rec.restored)
	}

	// The swap-window writes replayed to the restored v1; traffic flows on.
	for i := 6; i < 8; i++ {
		if err := appEnd.Write([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunAll()
	if len(rec.recv) != 8 {
		t.Fatalf("deliveries = %v", rec.recv)
	}
	for i, got := range rec.recv {
		want := fmt.Sprintf("v1:m%02d", i)
		if got != want {
			t.Fatalf("recv[%d] = %q, want %q", i, got, want)
		}
	}
	st := ch.Stats()
	if st.Sent != 8 || st.Delivered != 8 || st.Undelivered != 0 || st.Replayed != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// The staged rollback checkpoint was consumed and cleared: nothing
	// lingers to contaminate a later deployment.
	if len(r.rt.pendingRestore) != 0 {
		t.Fatalf("pendingRestore = %v, want empty", r.rt.pendingRestore)
	}
}

// Replace validates before touching anything.
func TestReplaceValidation(t *testing.T) {
	r := newRig(t, Config{})
	rec := &swapRecorder{}
	stockCounter(t, r, rec, "/offcodes/counter.v1.odf", 500, 1, nil)
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	deploy(t, r, "/offcodes/counter.v1.odf")

	replaceErr := func(app *App, bind, path string) error {
		var rerr error
		app.Replace(bind, path, func(m *MutationResult, err error) { rerr = err })
		r.eng.RunAll()
		return rerr
	}
	app := r.rt.DefaultApp()
	if err := replaceErr(app, "ghost", "/offcodes/counter.v1.odf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown bind: %v", err)
	}
	if err := replaceErr(app, "hydra.Heap", "/offcodes/counter.v1.odf"); err == nil || !strings.Contains(err.Error(), "pseudo") {
		t.Fatalf("pseudo: %v", err)
	}
	// The replacement ODF must bind the same name.
	if err := replaceErr(app, "svc.Counter", "/offcodes/net.Checksum.odf"); err == nil || !strings.Contains(err.Error(), "binds") {
		t.Fatalf("bind mismatch: %v", err)
	}
	// Ownership: another session cannot swap this session's root.
	other, err := r.rt.OpenApp("other", AppConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replaceErr(other, "svc.Counter", "/offcodes/counter.v1.odf"); err == nil || !strings.Contains(err.Error(), "not owned") {
		t.Fatalf("ownership: %v", err)
	}
	// A closed session cannot swap anything.
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replaceErr(other, "svc.Counter", "/offcodes/counter.v1.odf"); !errors.Is(err, ErrAppClosed) {
		t.Fatalf("closed session: %v", err)
	}
	// None of the rejected attempts disturbed the live instance.
	h, err := r.rt.GetOffcode("svc.Counter")
	if err != nil || h.state != StateStarted {
		t.Fatalf("live instance: %v %v", h, err)
	}
}

// Regression (bugfix): a successful deploy used to leave staged
// StageRestore state behind when the deployed behaviour was not a
// Checkpointer (or the bind was merely reused) — a later, unrelated
// deployment of the same bind name would then silently restore stale
// checkpoint bytes. Commit must clear staged state for every bind it
// covers once it settles.
func TestDeployClearsStagedRestore(t *testing.T) {
	r := newRig(t, Config{})
	// net.Checksum's fakeOffcode is NOT a Checkpointer: the staged bytes
	// cannot be consumed by this deploy.
	r.stock(t, "net.Checksum", 101, "Network Device", "")
	r.rt.StageRestore("net.Checksum", []byte{0xEE})
	h := deploy(t, r, "/offcodes/net.Checksum.odf")
	if len(r.rt.pendingRestore) != 0 {
		t.Fatalf("pendingRestore = %v after successful deploy, want empty", r.rt.pendingRestore)
	}

	// Re-deploying the bind later (fresh instance, now checkpoint-capable)
	// must not see the stale bytes.
	if err := r.rt.StopOffcode(h); err != nil {
		t.Fatal(err)
	}
	rec := &swapRecorder{}
	odfDoc := `<offcode>
  <package><bindname>net.Checksum</bindname><GUID>777</GUID></package>
  <targets><device-class><name>Network Device</name></device-class><host-fallback>true</host-fallback></targets>
</offcode>`
	r.depot.PutFile("/offcodes/checksum2.odf", []byte(odfDoc))
	if err := r.depot.RegisterObject(objfile.Synthesize("net.Checksum", 777, 512, []string{"hydra.Heap.Alloc"})); err != nil {
		t.Fatal(err)
	}
	r.depot.RegisterFactory(777, func() any {
		rec.last = &counterOffcode{version: 9, rec: rec}
		return rec.last
	})
	deploy(t, r, "/offcodes/checksum2.odf")
	if len(rec.restored) != 0 {
		t.Fatalf("fresh deploy restored stale state: %v", rec.restored)
	}

	// A failed commit clears its staged state too.
	r2 := newRig(t, Config{})
	r2.stockNoFactory(t, "fs.Broken", 202, "Storage Device", "")
	r2.rt.StageRestore("fs.Broken", []byte{0xEE})
	var derr error
	planDeploy(r2.rt, "/offcodes/fs.Broken.odf", func(h *Handle, err error) { derr = err })
	r2.eng.RunAll()
	if derr == nil {
		t.Fatal("broken deploy succeeded")
	}
	if len(r2.rt.pendingRestore) != 0 {
		t.Fatalf("failed commit kept staged restore: %v", r2.rt.pendingRestore)
	}
}

// Quiesce windows are bounded on the virtual clock and the mutation spans
// are visible on the trace (the tooling breaks swap windows out by the
// mutate category).
func TestReplaceSwapWindowIsBounded(t *testing.T) {
	r := newRig(t, Config{})
	rec := &swapRecorder{}
	stockCounter(t, r, rec, "/offcodes/counter.v1.odf", 500, 1, nil)
	stockCounter(t, r, rec, "/offcodes/counter.v2.odf", 501, 2, nil)
	deploy(t, r, "/offcodes/counter.v1.odf")

	var res *MutationResult
	r.rt.DefaultApp().Replace("svc.Counter", "/offcodes/counter.v2.odf",
		func(m *MutationResult, err error) {
			if err != nil {
				t.Error(err)
			}
			res = m
		})
	r.eng.RunAll()
	if res == nil {
		t.Fatal("mutation incomplete")
	}
	window := res.Finished - res.Started
	if window <= 0 {
		t.Fatalf("swap window = %v, want > 0 (a swap consumes simulated time)", window)
	}
	if window > sim.Second {
		t.Fatalf("swap window = %v, implausibly long", window)
	}
}
