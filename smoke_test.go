// Smoke tests for cmd/ and examples/: every binary must build, and the
// fast examples must run to completion through the testbed layer with the
// output shape each program promises.
package hydra_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// buildBinaries compiles every main package under cmd/ and examples/ into
// separate subdirectories of a temp dir (cmd/tivopc and examples/tivopc
// share a basename and would silently overwrite each other in one dir)
// and returns the temp dir.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for sub, pattern := range map[string]string{"cmd": "./cmd/...", "examples": "./examples/..."} {
		dir := filepath.Join(bin, sub)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), pattern)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pattern, err, out)
		}
	}
	return bin
}

func runBinary(t *testing.T, bin, name string, args ...string) string {
	t.Helper()
	exe := filepath.Join(bin, filepath.FromSlash(name))
	if runtime.GOOS == "windows" {
		exe += ".exe"
	}
	out, err := exec.Command(exe, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestSmokeBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := buildBinaries(t)

	// Every main package must have produced a binary.
	for _, name := range []string{
		"cmd/chan-saturate", "cmd/cluster-shard", "cmd/docslint", "cmd/hydra-bench",
		"cmd/hydra-trace", "cmd/layout-solve", "cmd/odflint", "cmd/tivopc",
		"examples/layoutopt", "examples/packetfilter", "examples/quickstart",
		"examples/storageindex", "examples/tivopc",
	} {
		exe := filepath.Join(bin, filepath.FromSlash(name))
		if runtime.GOOS == "windows" {
			exe += ".exe"
		}
		if _, err := os.Stat(exe); err != nil {
			t.Fatalf("binary %s not built: %v", name, err)
		}
	}

	t.Run("quickstart", func(t *testing.T) {
		out := runBinary(t, bin, "examples/quickstart")
		for _, want := range []string{"deployed to nic0", "checksum reply", "done:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("quickstart output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("packetfilter", func(t *testing.T) {
		out := runBinary(t, bin, "examples/packetfilter")
		if !strings.Contains(out, "identical verdicts on both paths") {
			t.Fatalf("packetfilter did not verify:\n%s", out)
		}
	})

	t.Run("storageindex", func(t *testing.T) {
		out := runBinary(t, bin, "examples/storageindex")
		if !strings.Contains(out, "both paths agree") {
			t.Fatalf("storageindex did not verify:\n%s", out)
		}
	})

	t.Run("layoutopt", func(t *testing.T) {
		out := runBinary(t, bin, "examples/layoutopt")
		if !strings.Contains(out, "proven optimal") {
			t.Fatalf("layoutopt missing ILP result:\n%s", out)
		}
	})

	t.Run("layout-solve", func(t *testing.T) {
		out := runBinary(t, bin, "cmd/layout-solve")
		if !strings.Contains(out, "greedy") {
			t.Fatalf("layout-solve output unexpected:\n%s", out)
		}
	})

	t.Run("tivopc-failover", func(t *testing.T) {
		out := runBinary(t, bin, "cmd/tivopc", "-seconds", "10", "-crash-nic", "4")
		for _, want := range []string{"server-nic failed", "stream resumed on: server-nic2"} {
			if !strings.Contains(out, want) {
				t.Fatalf("failover output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("tivopc-background", func(t *testing.T) {
		out := runBinary(t, bin, "cmd/tivopc", "-seconds", "10", "-background")
		for _, want := range []string{"background session", "teardown reclaimed", "stream jitter"} {
			if !strings.Contains(out, want) {
				t.Fatalf("contended output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("quickstart-session", func(t *testing.T) {
		out := runBinary(t, bin, "examples/quickstart")
		for _, want := range []string{"plan: hydra.net.utils.Checksum → nic0", "session closed: reclaimed"} {
			if !strings.Contains(out, want) {
				t.Fatalf("quickstart session output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("chan-saturate", func(t *testing.T) {
		batched := runBinary(t, bin, "cmd/chan-saturate",
			"-rate", "20000", "-batch", "16", "-coalesce", "200us", "-seconds", "0.5")
		for _, want := range []string{"cycles/msg", "interrupts", "delivered"} {
			if !strings.Contains(batched, want) {
				t.Fatalf("chan-saturate output missing %q:\n%s", want, batched)
			}
		}
		perMsg := runBinary(t, bin, "cmd/chan-saturate",
			"-rate", "20000", "-batch", "1", "-seconds", "0.5")
		if !strings.Contains(perMsg, "0 batches") {
			t.Fatalf("per-message run should report no batches:\n%s", perMsg)
		}
	})

	t.Run("cluster-shard", func(t *testing.T) {
		out := runBinary(t, bin, "cmd/cluster-shard",
			"-hosts", "2", "-shards", "4", "-duration", "1s", "-kill")
		for _, want := range []string{"aggregate:", "bridges:", "shards moved off h1", "after resume"} {
			if !strings.Contains(out, want) {
				t.Fatalf("cluster-shard output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("hydra-bench-trace", func(t *testing.T) {
		// One traced x12 cell through the bench's -trace flag, then its
		// summary: the per-packet flow events must show up as a component.
		trace := filepath.Join(t.TempDir(), "x12.json")
		runBinary(t, bin, "cmd/hydra-bench", "-json", "-scenario", "x12", "-trace", "x12="+trace)
		out := runBinary(t, bin, "cmd/hydra-trace", trace)
		if !regexp.MustCompile(`(?m)^\s+flow\s+[1-9][0-9]*\s`).MatchString(out) {
			t.Fatalf("hydra-trace summary has no flow component row:\n%s", out)
		}
	})

	t.Run("docslint", func(t *testing.T) {
		// Tests run with the package directory (the repo root) as cwd.
		out := runBinary(t, bin, "cmd/docslint", "-root", ".")
		if !strings.Contains(out, "docslint: ok") {
			t.Fatalf("docslint did not pass:\n%s", out)
		}
	})

	t.Run("odflint", func(t *testing.T) {
		odf := filepath.Join(t.TempDir(), "ok.odf")
		err := os.WriteFile(odf, []byte(`<offcode>
  <package><bindname>smoke.OC</bindname><GUID>99</GUID></package>
  <targets><device-class id="0x0001"><name>Network Device</name></device-class></targets>
</offcode>`), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		out := runBinary(t, bin, "cmd/odflint", odf)
		if strings.Contains(strings.ToLower(out), "error") {
			t.Fatalf("odflint rejected a valid ODF:\n%s", out)
		}
	})
}
