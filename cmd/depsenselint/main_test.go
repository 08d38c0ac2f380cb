package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot returns the module root (this test runs in cmd/depsenselint).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// buildLint builds the depsenselint binary once per test.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "depsenselint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/depsenselint")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building depsenselint: %v\n%s", err, out)
	}
	return bin
}

// TestBinaryBuildsAndRunsClean is the acceptance smoke test: the
// multichecker binary builds, and the whole repository is clean — zero
// findings that are not justified by a //lint:allow suppression. The
// -staleallow audit must be clean too: every suppression still earns its
// keep.
func TestBinaryBuildsAndRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips whole-repo analysis")
	}
	bin := buildLint(t)
	var stdout, stderr bytes.Buffer
	run := exec.Command(bin, "-staleallow", "./...")
	run.Dir = repoRoot(t)
	run.Stdout = &stdout
	run.Stderr = &stderr
	if err := run.Run(); err != nil {
		t.Fatalf("depsenselint -staleallow ./... not clean: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "" {
		t.Errorf("expected no findings, got:\n%s", got)
	}
}

// TestListFlag checks the full eight-analyzer roster the binary advertises.
func TestListFlag(t *testing.T) {
	run := exec.Command("go", "run", ".", "-list")
	run.Dir = "."
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, name := range []string{
		"chandisc", "ctxloop", "goroleak", "maporder",
		"mutexguard", "probexpr", "scratchalias", "seedsource",
	} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
}

// writeTempModule lays out a one-package module carrying a chandisc
// violation (a bare pipeline send) and returns its directory.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"p/p.go": `// Package p is a depsenselint cache/fix test subject.
//
//depsense:zone pipeline
package p

import "context"

type stage struct {
	out chan int
}

func (s *stage) produce(ctx context.Context, v int) {
	s.out <- v
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lintJSON runs the binary with -json plus extra flags and decodes the
// output document. Exit status 1 (findings present) is not an error.
func lintJSON(t *testing.T, bin, dir string, extra ...string) jsonOutput {
	t.Helper()
	args := append([]string{"-C", dir, "-json"}, extra...)
	args = append(args, "./...")
	var stdout, stderr bytes.Buffer
	run := exec.Command(bin, args...)
	run.Stdout = &stdout
	run.Stderr = &stderr
	if err := run.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("depsenselint %v: %v\nstderr:\n%s", args, err, stderr.String())
		}
	}
	var out jsonOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, stdout.String())
	}
	return out
}

// TestFixFlag applies the chandisc suggested fix in place and verifies the
// module is clean afterwards.
func TestFixFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips go-list subprocesses")
	}
	bin := buildLint(t)
	dir := writeTempModule(t)

	var stdout, stderr bytes.Buffer
	fix := exec.Command(bin, "-C", dir, "-fix", "./...")
	fix.Stdout = &stdout
	fix.Stderr = &stderr
	if err := fix.Run(); err != nil {
		t.Fatalf("-fix run failed: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "applied 1 suggested fix") {
		t.Fatalf("expected fix application notice, got:\n%s", stdout.String())
	}
	src, err := os.ReadFile(filepath.Join(dir, "p", "p.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "case <-ctx.Done():") {
		t.Fatalf("fix not applied to source:\n%s", src)
	}

	after := lintJSON(t, bin, dir)
	if len(after.Findings) != 0 {
		t.Fatalf("module should be clean after -fix, got %+v", after.Findings)
	}
}

// TestAnnotationsFlag renders findings as GitHub Actions commands.
func TestAnnotationsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips go-list subprocesses")
	}
	bin := buildLint(t)
	dir := writeTempModule(t)

	var stdout bytes.Buffer
	run := exec.Command(bin, "-C", dir, "-annotations", "./...")
	run.Stdout = &stdout
	err := run.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit 1 with findings, got %v", err)
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, "title=depsenselint/chandisc") {
		t.Fatalf("unexpected annotation format:\n%s", line)
	}
}
