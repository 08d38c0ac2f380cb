package framework

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadRejectsVacuousPatterns: a pattern naming a missing directory, or
// one that matches no package, fails the load with the pattern in the
// error instead of returning zero packages to analyze.
func TestLoadRejectsVacuousPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips go-list subprocesses")
	}
	dir := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":          "module tmpmod\n\ngo 1.22\n",
		"p/p.go":          "package p\n",
		"empty/README.md": "no Go files here\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := Load(dir, "./...")
	if err != nil || len(pkgs) != 1 || pkgs[0].ImportPath != "tmpmod/p" {
		t.Fatalf("Load(./...) = %v, %v; want the one package tmpmod/p", pkgs, err)
	}
	for _, tc := range []struct {
		patterns []string
		want     string
	}{
		{[]string{"./missing/..."}, "./missing/..."},
		{[]string{"./missing/"}, "missing"},
		{[]string{"./empty/..."}, `pattern "./empty/..." matched no packages`},
		{[]string{"./p", "./empty/..."}, `pattern "./empty/..." matched no packages`},
	} {
		pkgs, err := Load(dir, tc.patterns...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%v) = %d package(s), err %v; want an error naming %q", tc.patterns, len(pkgs), err, tc.want)
		}
	}
}
