// README contract test: the quickstart snippet must compile — and run —
// exactly as written. The snippet is extracted from the first fenced Go
// block of README.md into a throwaway module that depends on this
// repository via a replace directive, so any façade drift that would break
// a copy-pasting reader breaks CI instead.
package hydra_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")

func TestReadmeQuickstartCompilesAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping README build test in -short mode")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md must exist at the repo root: %v", err)
	}
	m := goFence.FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no ```go fenced quickstart block")
	}
	snippet := m[1]
	if !strings.Contains(string(snippet), "package main") {
		t.Fatal("README quickstart is not a complete main package")
	}

	repoRoot, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gomod := fmt.Sprintf("module readmequickstart\n\ngo 1.24\n\nrequire hydra v0.0.0\n\nreplace hydra => %s\n", repoRoot)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), snippet, 0o644); err != nil {
		t.Fatal(err)
	}

	build := exec.Command("go", "build", "-o", filepath.Join(dir, "quickstart"), ".")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("README quickstart does not compile as written: %v\n%s", err, out)
	}
	run := exec.Command(filepath.Join(dir, "quickstart"))
	run.Dir = dir
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("README quickstart failed at runtime: %v\n%s", err, out)
	}
	for _, want := range []string{"deployed demo.Counter to nic0 in"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("README quickstart output missing %q:\n%s", want, out)
		}
	}
}
