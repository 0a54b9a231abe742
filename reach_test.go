// Reachability check: every function declared in internal/ must be linked
// into at least one binary the repository ships (cmd/*, examples/*,
// perfbench and perfbench/inject), or be listed in
// testdata/unreachable.txt with a reason. Binaries are built without
// inlining so every called function keeps its own symbol; the linker's
// dead-code pass then decides what a program can reach.
package hydra_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const (
	modulePath    = "hydra/"
	allowlistPath = "testdata/unreachable.txt"
	// maxAllowlisted caps the allowlist so it cannot quietly regrow into
	// the dead code it replaced.
	maxAllowlisted = 40
)

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping reachability build in -short mode")
	}
	bin := buildBinaries(t, "-gcflags=all=-l")
	// perfbench is its own module (it replaces hydra with ../), so it
	// builds from its own directory into the same output dir.
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(os.PathSeparator), ".", "./inject")
	cmd.Dir = "perfbench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build perfbench: %v\n%s", err, out)
	}
	linked := linkedSymbols(t, bin)
	declared := internalFuncs(t)
	allow := readAllowlist(t)
	if len(allow) > maxAllowlisted {
		t.Errorf("%s lists %d functions, more than %d", allowlistPath, len(allow), maxAllowlisted)
	}

	var unlisted []string
	for name, candidates := range declared {
		reached := false
		for _, sym := range candidates {
			reached = reached || linked[sym]
		}
		_, listed := allow[name]
		switch {
		case reached && listed:
			t.Errorf("%s: %s is linked into a binary; drop its entry", allowlistPath, name)
		case !reached && !listed:
			unlisted = append(unlisted, name)
		}
	}
	for name := range allow {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: %s is no longer declared in internal/; drop its entry", allowlistPath, name)
		}
	}
	sort.Strings(unlisted)
	for _, name := range unlisted {
		t.Errorf("%s is linked into no binary: delete it, or list it in %s with a reason", name, allowlistPath)
	}
}

// nmLine is one `go tool nm` row: address, symbol type, name. Names of
// generic instantiations may contain spaces, so the name is the rest of
// the line.
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]+\s+([A-Za-z])\s+(.+)$`)

// linkedSymbols returns the text symbols under hydra/internal/ across every
// binary in dir, with generic instantiation brackets stripped so that
// RunTwin[…] and (*T[…]).M match their declarations by name.
func linkedSymbols(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := make(map[string]bool)
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			m := nmLine.FindStringSubmatch(sc.Text())
			if m == nil || (m[1] != "T" && m[1] != "t") {
				continue
			}
			if name := stripTypeArgs(m[2]); strings.HasPrefix(name, modulePath+"internal/") {
				linked[name] = true
			}
		}
	}
	return linked
}

// stripTypeArgs removes every bracketed type-argument list from a symbol.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// internalFuncs maps each function and method declared in non-test files
// under internal/ (named as in the allowlist: "pkg.F", "pkg.(*T).M",
// "pkg.T.M") to the linker symbols that count as reaching it. A
// value-receiver method also counts when only its pointer wrapper is
// linked.
func internalFuncs(t *testing.T) map[string][]string {
	t.Helper()
	decls := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			if fn.Recv == nil {
				name := pkg + "." + fn.Name.Name
				decls[strings.TrimPrefix(name, "internal/")] = []string{modulePath + name}
				continue
			}
			typ, ptr := receiverType(fn.Recv.List[0].Type)
			value := pkg + "." + typ + "." + fn.Name.Name
			pointer := pkg + ".(*" + typ + ")." + fn.Name.Name
			if ptr {
				decls[strings.TrimPrefix(pointer, "internal/")] = []string{modulePath + pointer}
			} else {
				decls[strings.TrimPrefix(value, "internal/")] = []string{modulePath + value, modulePath + pointer}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// receiverType names a method receiver's base type, without type
// parameters, and reports whether it is a pointer receiver.
func receiverType(e ast.Expr) (name string, ptr bool) {
	if star, ok := e.(*ast.StarExpr); ok {
		e, ptr = star.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}

// readAllowlist parses testdata/unreachable.txt: one "name  reason" entry
// per line, '#' starting a comment line. Every entry needs a reason.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(allowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	allow := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", allowlistPath, i+1, name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: duplicate entry %s", allowlistPath, i+1, name)
		}
		allow[name] = reason
	}
	return allow
}
