package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"depsense/internal/trace"
)

// TestRunOnce drives the binary end to end in batch mode: short seeded
// firehose, persistence and trace spill on, no HTTP. The run must leave a
// final snapshot, a claim log, and well-formed refit traces behind — and a
// second run over the same directory must resume (not refit from scratch)
// and exit cleanly.
func TestRunOnce(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-scenario", "Ukraine",
		"-scale", "60",
		"-seed", "7",
		"-batch", "32",
		"-once",
		"-addr", "",
		"-data", dir,
		"-trace-dir", dir,
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no final snapshot: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "claims.log")); err != nil {
		t.Fatalf("no claim log: %v", err)
	}
	traces, err := trace.ReadFile(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		t.Fatalf("trace spill unreadable: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("no refit traces spilled")
	}
	firstRun := len(traces)

	// Second run resumes at the committed stream position: the firehose is
	// already exhausted there, so no new batches are fitted.
	if err := run(args); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	traces, err = trace.ReadFile(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != firstRun {
		t.Fatalf("resumed run refitted: %d traces, want %d", len(traces), firstRun)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// A misspelt preset ("Paris Attack" is the Table III name) must not run
	// another scenario under its label.
	if err := run([]string{"-scenario", "Paris attack", "-once", "-addr", ""}); err == nil ||
		!strings.Contains(err.Error(), `"Paris attack"`) {
		t.Fatalf("unknown scenario: err = %v, want one naming it", err)
	}
}
