package hydra_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFacadeExportsAreReferenced keeps the facade to the API its users
// need: every exported name in hydra.go must appear as hydra.<Name> in
// some non-test .go file or markdown file of the repository (hydra.go
// itself does not count). An export nothing references is dead surface —
// delete it, or document and use it.
func TestFacadeExportsAreReferenced(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "hydra.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("hydra.go exports nothing")
	}

	var corpus strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		code := strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && path != "hydra.go"
		if !code && !strings.HasSuffix(path, ".md") {
			return nil
		}
		b, err := os.ReadFile(path)
		corpus.Write(b)
		corpus.WriteByte('\n')
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	text := corpus.String()
	for _, name := range names {
		if !regexp.MustCompile(`\bhydra\.` + name + `\b`).MatchString(text) {
			t.Errorf("hydra.%s is exported but referenced by no non-test .go file or markdown file", name)
		}
	}
}
