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
// a temp dir, passing flags to go build, and returns the dir.
func buildBinaries(t *testing.T, flags ...string) string {
	t.Helper()
	bin := t.TempDir()
	args := append([]string{"build"}, flags...)
	args = append(args, "-o", bin+string(os.PathSeparator), "./cmd/...", "./examples/...")
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runBinary(t *testing.T, bin, name string, args ...string) string {
	t.Helper()
	exe := filepath.Join(bin, name)
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
		"docslint", "hydra-bench", "hydra-trace", "layout-solve", "odflint", "tivopc",
		"layoutopt", "packetfilter", "quickstart", "storageindex",
	} {
		exe := filepath.Join(bin, name)
		if runtime.GOOS == "windows" {
			exe += ".exe"
		}
		if _, err := os.Stat(exe); err != nil {
			t.Fatalf("binary %s not built: %v", name, err)
		}
	}

	t.Run("quickstart", func(t *testing.T) {
		out := runBinary(t, bin, "quickstart")
		for _, want := range []string{"deployed to nic0", "checksum reply", "done:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("quickstart output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("packetfilter", func(t *testing.T) {
		out := runBinary(t, bin, "packetfilter")
		if !strings.Contains(out, "identical verdicts on both paths") {
			t.Fatalf("packetfilter did not verify:\n%s", out)
		}
	})

	t.Run("storageindex", func(t *testing.T) {
		out := runBinary(t, bin, "storageindex")
		if !strings.Contains(out, "both paths agree") {
			t.Fatalf("storageindex did not verify:\n%s", out)
		}
	})

	t.Run("layoutopt", func(t *testing.T) {
		out := runBinary(t, bin, "layoutopt")
		if !strings.Contains(out, "proven optimal") {
			t.Fatalf("layoutopt missing ILP result:\n%s", out)
		}
	})

	t.Run("layout-solve", func(t *testing.T) {
		out := runBinary(t, bin, "layout-solve")
		if !strings.Contains(out, "greedy") {
			t.Fatalf("layout-solve output unexpected:\n%s", out)
		}
	})

	t.Run("tivopc-failover", func(t *testing.T) {
		out := runBinary(t, bin, "tivopc", "-seconds", "10", "-crash-nic", "4")
		for _, want := range []string{"server-nic failed", "stream resumed on: server-nic2"} {
			if !strings.Contains(out, want) {
				t.Fatalf("failover output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("tivopc-background", func(t *testing.T) {
		out := runBinary(t, bin, "tivopc", "-seconds", "10", "-background")
		for _, want := range []string{"background session", "teardown reclaimed", "stream jitter"} {
			if !strings.Contains(out, want) {
				t.Fatalf("contended output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("tivopc-offloaded", func(t *testing.T) {
		out := runBinary(t, bin, "tivopc", "-seconds", "3", "-client", "offloaded")
		for _, want := range []string{"frames decoded on GPU", "recorded to NAS", "energy: NIC"} {
			if !strings.Contains(out, want) {
				t.Fatalf("offloaded-client output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("quickstart-session", func(t *testing.T) {
		out := runBinary(t, bin, "quickstart")
		for _, want := range []string{"deployed to nic0", "session closed: reclaimed"} {
			if !strings.Contains(out, want) {
				t.Fatalf("quickstart session output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("hydra-bench-trace", func(t *testing.T) {
		// One traced x12 cell through the bench's -trace flag, then its
		// summary: the per-packet flow events must show up as a component.
		trace := filepath.Join(t.TempDir(), "x12.json")
		runBinary(t, bin, "hydra-bench", "-json", "-scenario", "x12", "-trace", "x12="+trace)
		out := runBinary(t, bin, "hydra-trace", trace)
		if !regexp.MustCompile(`(?m)^\s+flow\s+[1-9][0-9]*\s`).MatchString(out) {
			t.Fatalf("hydra-trace summary has no flow component row:\n%s", out)
		}
	})

	t.Run("docslint", func(t *testing.T) {
		// Tests run with the package directory (the repo root) as cwd.
		out := runBinary(t, bin, "docslint", "-root", ".")
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
		out := runBinary(t, bin, "odflint", odf)
		if strings.Contains(strings.ToLower(out), "error") {
			t.Fatalf("odflint rejected a valid ODF:\n%s", out)
		}
	})
}
