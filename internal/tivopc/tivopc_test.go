package tivopc

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hydra/internal/core"
	"hydra/internal/mpeg"
	"hydra/internal/sim"
)

const testDuration = 30 * sim.Second

// Movie grows one never-flushed encoding, so whatever order and
// goroutines ask for it, every call returns a prefix of the stream a
// one-shot encode of the same frames produces. n = 2,113,536 is the size a
// 10 s run loads (perfbench's tivopc workload).
func TestMovieIsStablePrefix(t *testing.T) {
	cfg := MovieConfig()
	want, err := mpeg.Encode(cfg, mpeg.GenerateVideo(cfg, 512))
	if err != nil {
		t.Fatal(err)
	}
	check := func(n int) error {
		if got := Movie(n); !bytes.Equal(got, want[:n]) {
			return fmt.Errorf("Movie(%d) is %d bytes and not a prefix of the encoded video", n, len(got))
		}
		return nil
	}
	sizes := []int{1, 100 << 10, 777_777, 2_113_536}
	for i := range sizes { // increasing, then decreasing
		if err := check(sizes[i]); err != nil {
			t.Error(err)
		}
	}
	for i := range sizes {
		if err := check(sizes[len(sizes)-1-i]); err != nil {
			t.Error(err)
		}
	}
	// Concurrent callers, some growing the stream while others read it.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = check(2_113_536 + i*400_000)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if m := Movie(10); cap(m) != 10 {
		t.Errorf("Movie(10) has capacity %d: appending to it would write into the shared stream", cap(m))
	}
}

func TestSimpleServerJitter(t *testing.T) {
	run, err := RunServerScenario(SimpleServer, 101, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	s := run.JitterSummary()
	t.Logf("simple: median=%.2f mean=%.2f std=%.4f n=%d sent=%d", s.Median, s.Mean, s.StdDev, s.N, run.Sent)
	// Paper Table 2: median 6.99, avg 7.00, std 0.5521.
	if s.Median < 6.4 || s.Median > 7.6 {
		t.Errorf("simple median = %.2f ms, want ≈7", s.Median)
	}
	if s.StdDev < 0.1 || s.StdDev > 1.2 {
		t.Errorf("simple stddev = %.4f ms, want ≈0.55", s.StdDev)
	}
}

func TestSendfileServerJitter(t *testing.T) {
	run, err := RunServerScenario(SendfileServer, 102, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	s := run.JitterSummary()
	t.Logf("sendfile: median=%.2f mean=%.2f std=%.4f n=%d sent=%d", s.Median, s.Mean, s.StdDev, s.N, run.Sent)
	// Paper: median 6.00, avg 5.99, std 0.4720.
	if s.Median < 5.5 || s.Median > 6.5 {
		t.Errorf("sendfile median = %.2f ms, want ≈6", s.Median)
	}
}

func TestOffloadedServerJitter(t *testing.T) {
	run, err := RunServerScenario(OffloadedServer, 103, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	s := run.JitterSummary()
	t.Logf("offloaded: median=%.4f mean=%.4f std=%.4f n=%d sent=%d", s.Median, s.Mean, s.StdDev, s.N, run.Sent)
	// Paper: median 5.00, avg 5.00, std 0.0369.
	if s.Median < 4.95 || s.Median > 5.05 {
		t.Errorf("offloaded median = %.4f ms, want 5.00", s.Median)
	}
	if s.StdDev > 0.1 {
		t.Errorf("offloaded stddev = %.4f ms, want ≈0.037", s.StdDev)
	}
}

func TestServerCPUOrdering(t *testing.T) {
	idle, err := RunServerScenario(0, 104, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	simple, err := RunServerScenario(SimpleServer, 104, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	sendfile, err := RunServerScenario(SendfileServer, 104, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	offl, err := RunServerScenario(OffloadedServer, 104, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	i, s, f, o := idle.CPUSummary().Mean, simple.CPUSummary().Mean, sendfile.CPUSummary().Mean, offl.CPUSummary().Mean
	t.Logf("CPU%%: idle=%.2f simple=%.2f sendfile=%.2f offloaded=%.2f", i, s, f, o)
	// Paper Table 3 ordering: simple > sendfile > offloaded ≈ idle.
	if !(s > f && f > o) {
		t.Errorf("CPU ordering broken: simple=%.2f sendfile=%.2f offloaded=%.2f", s, f, o)
	}
	if o > i*1.15 {
		t.Errorf("offloaded server CPU %.2f%% not ≈ idle %.2f%%", o, i)
	}
	// Figure 10 ordering on kernel miss rates.
	im, sm, fm, om := idle.MeanMissRate(), simple.MeanMissRate(), sendfile.MeanMissRate(), offl.MeanMissRate()
	t.Logf("kernel L2 miss rate: idle=%.4f simple=%.4f sendfile=%.4f offloaded=%.4f (simple/idle=%.3f sendfile/idle=%.3f offl/idle=%.3f)",
		im, sm, fm, om, sm/im, fm/im, om/im)
	if sm <= im {
		t.Errorf("simple server did not raise kernel miss rate: %.4f vs idle %.4f", sm, im)
	}
	if om > im*1.05 {
		t.Errorf("offloaded server raised kernel miss rate: %.4f vs idle %.4f", om, im)
	}
}

func TestClientScenarios(t *testing.T) {
	idle, err := RunClientScenario(IdleClient, 105, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	user, err := RunClientScenario(UserspaceClient, 105, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	offl, err := RunClientScenario(OffloadedClient, 105, testDuration)
	if err != nil {
		t.Fatal(err)
	}
	i, u, o := idle.CPUSummary().Mean, user.CPUSummary().Mean, offl.CPUSummary().Mean
	t.Logf("client CPU%%: idle=%.2f user=%.2f offloaded=%.2f", i, u, o)
	t.Logf("client frames: user=%d offloaded=%d; recorded=%d bytes", user.FramesDecoded, offl.FramesDecoded, offl.Recorded)
	t.Logf("client L2 misses: idle=%d user=%d (+%.1f%%) offloaded=%d (+%.1f%%)",
		idle.L2Misses, user.L2Misses, 100*float64(user.L2Misses-idle.L2Misses)/float64(idle.L2Misses),
		offl.L2Misses, 100*(float64(offl.L2Misses)-float64(idle.L2Misses))/float64(idle.L2Misses))

	// Paper Table 4: user-space ≈ 7.3%, offloaded = idle ≈ 2.9%.
	if u <= i*1.5 {
		t.Errorf("user-space client CPU %.2f%% not clearly above idle %.2f%%", u, i)
	}
	if o > i*1.15 {
		t.Errorf("offloaded client CPU %.2f%% not ≈ idle %.2f%%", o, i)
	}
	if !user.Verified || !offl.Verified {
		t.Error("decode verification failed")
	}
	// §6.4 text: non-offloaded client generates ~12% more L2 misses;
	// offloaded matches idle.
	if user.L2Misses <= idle.L2Misses {
		t.Error("user-space client did not add L2 misses")
	}
	if float64(offl.L2Misses) > float64(idle.L2Misses)*1.05 {
		t.Errorf("offloaded client added L2 misses: %d vs %d", offl.L2Misses, idle.L2Misses)
	}
	// The recording actually landed on the NAS.
	if offl.Recorded == 0 {
		t.Error("offloaded client recorded nothing")
	}
}

func TestOffloadedClientPlacementAndPipeline(t *testing.T) {
	tb := NewTestbed(106, 5*sim.Second)
	client, err := StartClient(tb, OffloadedClient)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartServer(tb, OffloadedServer, 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Run(5 * sim.Second)
	if err := client.VerifyPlacement(); err != nil {
		t.Fatal(err)
	}
	if client.Display.VerifyFail != 0 || client.Display.VerifiedOK == 0 {
		t.Fatalf("frame verification: ok=%d fail=%d", client.Display.VerifiedOK, client.Display.VerifyFail)
	}
	// The recording on the NAS is a prefix of the movie.
	rec, ok := tb.NASStore.Get(RecordPath)
	if !ok || len(rec) == 0 {
		t.Fatal("no recording on NAS")
	}
	movie, _ := tb.NASStore.Get(MoviePath)
	for i := range rec {
		if rec[i] != movie[i] {
			t.Fatalf("recording diverges from movie at byte %d", i)
		}
	}
}

func TestDeterministicScenario(t *testing.T) {
	r1, err := RunServerScenario(SimpleServer, 42, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunServerScenario(SimpleServer, 42, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.JitterGaps) != len(r2.JitterGaps) {
		t.Fatal("runs differ in arrivals")
	}
	for i := range r1.JitterGaps {
		if r1.JitterGaps[i] != r2.JitterGaps[i] {
			t.Fatal("runs not deterministic")
		}
	}
}

// --- NIC failover ---

func TestFailoverRecoversOnStandbyNIC(t *testing.T) {
	duration := 20 * sim.Second
	crashAt := 8 * sim.Second
	run, err := RunFailoverScenario(1, duration, CrashPrimaryNIC(crashAt, 0))
	if err != nil {
		t.Fatal(err)
	}
	if run.FinalNIC != StandbyNIC {
		t.Fatalf("tivo.Server on %s, want %s", run.FinalNIC, StandbyNIC)
	}
	if len(run.Recoveries) != 1 {
		t.Fatalf("recoveries = %d", len(run.Recoveries))
	}
	rec := run.Recoveries[0]
	if rec.Device != PrimaryNIC || !rec.Complete() || rec.Err != nil {
		t.Fatalf("recovery = %+v", rec)
	}
	lat := run.DetectionLatencies()
	if len(lat) != 1 || lat[0] <= 0 || lat[0] > 4*core.Heartbeat {
		t.Fatalf("detection latencies = %v", lat)
	}
	if rec.MigrationTime() <= 0 || rec.MigrationTime() > sim.Second {
		t.Fatalf("migration time = %v", rec.MigrationTime())
	}
	// The stream went down briefly and came back: post-recovery arrivals
	// exist and pace at the nominal 5 ms period.
	post := run.PostRecoveryJitter()
	if post.N < 100 {
		t.Fatalf("only %d post-recovery gaps", post.N)
	}
	if post.Median < 4 || post.Median > 6 {
		t.Fatalf("post-recovery median gap = %.2f ms, want ≈5", post.Median)
	}
	if run.ChunksLost() == 0 {
		t.Fatal("a crash mid-stream should lose some chunks")
	}
	if run.Availability() < 0.9 || run.Availability() > 1.0 {
		t.Fatalf("availability = %.3f", run.Availability())
	}
	// The File Offcode resumed from its checkpoint: total delivered plus
	// the outage loss covers the nominal stream (no restart from zero).
	if run.Delivered()+run.ChunksLost() < run.Expected-10 {
		t.Fatalf("delivered %d + lost %d ≪ expected %d; stream did not resume",
			run.Delivered(), run.ChunksLost(), run.Expected)
	}
}

func TestFailoverBaselineWithoutFaults(t *testing.T) {
	run, err := RunFailoverScenario(1, 10*sim.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.FinalNIC != PrimaryNIC {
		t.Fatalf("fault-free run on %s, want %s", run.FinalNIC, PrimaryNIC)
	}
	if len(run.Recoveries) != 0 {
		t.Fatalf("fault-free run recovered %d times", len(run.Recoveries))
	}
	if run.ChunksLost() != 0 {
		t.Fatalf("fault-free run lost %d chunks", run.ChunksLost())
	}
}

func TestFailoverDeterministic(t *testing.T) {
	duration := 10 * sim.Second
	sched := CrashPrimaryNIC(4*sim.Second, 0)
	run1, err := RunFailoverScenario(3, duration, sched)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := RunFailoverScenario(3, duration, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run1.Arrivals, run2.Arrivals) {
		t.Fatal("fixed-seed failover arrivals differ across repeats")
	}
	if !reflect.DeepEqual(run1.Faults, run2.Faults) {
		t.Fatal("fixed-seed fault logs differ")
	}
	if len(run1.Recoveries) != len(run2.Recoveries) {
		t.Fatal("recovery counts differ")
	}
	for i := range run1.Recoveries {
		a, b := run1.Recoveries[i], run2.Recoveries[i]
		if a.DetectedAt != b.DetectedAt || a.MigrationEnd != b.MigrationEnd {
			t.Fatalf("recovery %d timing differs: %+v vs %+v", i, a, b)
		}
	}
}

// --- Multi-tenant sessions ---

// The offloaded pipeline runs under dedicated application sessions, and a
// competing background tenant in its own session must not perturb the
// device-timer-paced stream, while its teardown reclaims everything.
func TestContendedScenarioSessionIsolation(t *testing.T) {
	run, err := RunContendedScenario(107, 15*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := run.Stream.JitterSummary()
	t.Logf("contended: median=%.4f std=%.4f bg-iterations=%d reclaimed=%d",
		s.Median, s.StdDev, run.BackgroundIterations, run.ReclaimedBytes)
	// The tenant really ran...
	if run.BackgroundIterations < 1000 {
		t.Fatalf("background tenant ran %d periods", run.BackgroundIterations)
	}
	// ...but the stream still paces at the offloaded server's device-timer
	// jitter level (Table 2: σ ≈ 0.037 ms).
	if s.Median < 4.95 || s.Median > 5.05 {
		t.Errorf("contended median = %.4f ms, want 5.00", s.Median)
	}
	if s.StdDev > 0.1 {
		t.Errorf("contended stddev = %.4f ms; background tenant broke isolation", s.StdDev)
	}
	// Closing the background session reclaimed its pin plus its Offcode's
	// OOB ring.
	if run.ReclaimedBytes < BackgroundPinBytes {
		t.Errorf("teardown reclaimed %d B, want ≥ %d", run.ReclaimedBytes, BackgroundPinBytes)
	}
}

// The streaming service's Offcodes are owned by the ServerApp session.
func TestOffloadedServerRunsInItsSession(t *testing.T) {
	tb := NewTestbed(108, 5*sim.Second)
	if _, err := StartServer(tb, OffloadedServer, 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Run(5 * sim.Second)
	for _, bind := range []string{"tivo.Server", "tivo.File", "tivo.Broadcast"} {
		h, err := tb.ServerRT.GetOffcode(bind)
		if err != nil {
			t.Fatal(err)
		}
		if h.App() != tb.ServerApp {
			t.Fatalf("%s owned by %v, want %s session", bind, h.App(), ServerAppName)
		}
	}
	// Walking every deployed Offcode: the server session owns exactly its
	// three, and the background session owns none it never deployed.
	owned := 0
	for _, bind := range tb.ServerRT.Offcodes() {
		h, err := tb.ServerRT.GetOffcode(bind)
		if err != nil {
			t.Fatal(err)
		}
		switch h.App() {
		case tb.ServerApp:
			owned++
		case tb.BackgroundApp:
			t.Fatalf("background session owns %s", bind)
		}
	}
	if owned != 3 {
		t.Fatalf("server session owns %d offcodes, want 3", owned)
	}
}

// FuzzFileRestore: no checkpoint makes the server File's Restore panic. A
// state that is not the 8-byte stream offset is refused and leaves the
// offset as it was; an accepted one checkpoints back to the same bytes.
// The corpus under testdata/fuzz holds empty, 7-, 8- and 9-byte states.
func FuzzFileRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, state []byte) {
		const before = 123_456
		file := &fileOffcode{offset: before}
		err := file.Restore(state)
		if len(state) != 8 {
			if err == nil || file.offset != before {
				t.Fatalf("%d-byte state: error %v, offset %d → %d", len(state), err, before, file.offset)
			}
			return
		}
		if err != nil {
			t.Fatalf("8-byte state refused: %v", err)
		}
		if got := file.Checkpoint(); !bytes.Equal(got, state) {
			t.Fatalf("restored %x, checkpointed %x", state, got)
		}
	})
}
