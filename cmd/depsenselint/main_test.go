package main

import (
	"bytes"
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

// TestListFlag checks the roster the binary advertises: exactly the three
// analyzers, in reporting-name order.
func TestListFlag(t *testing.T) {
	run := exec.Command("go", "run", ".", "-list")
	run.Dir = "."
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if want := []string{"maporder", "probexpr", "seedsource"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list roster = %v, want %v\n%s", got, want, out)
	}
}

// writeTempModule lays out a one-package module whose package p holds src,
// and returns its directory.
func writeTempModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"p/p.go": src,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lint runs the binary over the module in dir with extra flags and returns
// its stdout and exit status.
func lint(t *testing.T, bin, dir string, extra ...string) (string, int) {
	t.Helper()
	args := append(append([]string{"-C", dir}, extra...), "./...")
	var stdout, stderr bytes.Buffer
	run := exec.Command(bin, args...)
	run.Stdout = &stdout
	run.Stderr = &stderr
	err := run.Run()
	if err == nil {
		return stdout.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("depsenselint %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String(), 1
}

// TestAnnotationsFlag renders findings as GitHub Actions commands.
func TestAnnotationsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips go-list subprocesses")
	}
	bin := buildLint(t)
	dir := writeTempModule(t, `// Package p draws from the process-global source.
package p

import "math/rand"

func Draw() int {
	return rand.Intn(10)
}
`)
	out, code := lint(t, bin, dir, "-annotations")
	if code != 1 {
		t.Fatalf("expected exit 1 with findings, got %d", code)
	}
	line := strings.TrimSpace(out)
	if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, "title=depsenselint/seedsource") {
		t.Fatalf("unexpected annotation format:\n%s", line)
	}
}

// TestStaleAllowFlag is the CLI side of the suppression audit CI relies
// on: an allow that suppresses nothing, and one naming an analyzer outside
// the roster, pass the default run but fail -staleallow with exit 1.
func TestStaleAllowFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips go-list subprocesses")
	}
	bin := buildLint(t)
	dir := writeTempModule(t, `// Package p carries two allows that excuse nothing.
package p

func Count(xs []int) int {
	n := 0
	//lint:allow ctxloop bounded loop over a slice
	for range xs {
		n++
	}
	//lint:allow seedsource no clock is read here
	return n
}
`)
	if out, code := lint(t, bin, dir); code != 0 || out != "" {
		t.Fatalf("default run: exit %d, output %q; want exit 0 and no output", code, out)
	}
	out, code := lint(t, bin, dir, "-staleallow")
	if code != 1 {
		t.Fatalf("-staleallow: exit %d, want 1\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 ||
		!strings.Contains(lines[0], `staleallow: //lint:allow names unknown analyzer "ctxloop"`) ||
		!strings.Contains(lines[1], "staleallow: stale //lint:allow seedsource") {
		t.Fatalf("-staleallow output:\n%s\nwant the unknown ctxloop allow, then the stale seedsource allow", out)
	}
}

// TestVacuousPatternFails: a pattern that loads nothing is reported as a
// finding naming the pattern (exit 1), never a clean exit 0 over zero
// packages.
func TestVacuousPatternFails(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips go-list subprocesses")
	}
	bin := buildLint(t)
	for _, pattern := range []string{"./internal/nonexistent/...", "./internal/nonexistent/", "./testdata/..."} {
		var stdout, stderr bytes.Buffer
		run := exec.Command(bin, pattern)
		run.Dir = repoRoot(t)
		run.Stdout = &stdout
		run.Stderr = &stderr
		err := run.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit 1\nstderr:\n%s", pattern, err, stderr.String())
			continue
		}
		if name := strings.TrimSuffix(pattern, "/"); !strings.Contains(stdout.String(), name) {
			t.Errorf("%s: output does not name the pattern:\n%s", pattern, stdout.String())
		}
	}
}
