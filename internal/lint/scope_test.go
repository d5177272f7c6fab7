package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScopedPackagesExist requires every import path in the lint scopes
// to name a package directory of this module, so deleting or renaming a
// package cannot leave an entry behind that silently lints nothing.
func TestScopedPackagesExist(t *testing.T) {
	root := filepath.Join("..", "..")
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		t.Fatal("go.mod names no module")
	}
	for _, scope := range []map[string]bool{deterministicPkgs, clusterPkgs} {
		for path := range scope {
			rel, ok := strings.CutPrefix(path, module)
			if !ok || (rel != "" && !strings.HasPrefix(rel, "/")) {
				t.Errorf("%s: not inside module %s", path, module)
				continue
			}
			matches, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(rel), "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			hasSource := false
			for _, m := range matches {
				hasSource = hasSource || !strings.HasSuffix(m, "_test.go")
			}
			if !hasSource {
				t.Errorf("%s: no Go package at %s", path, filepath.Join(root, filepath.FromSlash(rel)))
			}
		}
	}
}
