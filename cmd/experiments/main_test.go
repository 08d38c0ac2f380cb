package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"depsense/internal/eval"
)

func TestRunTableI(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "table1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.26980433") {
		t.Fatalf("table1 output missing paper value:\n%s", sb.String())
	}
}

func TestRunQuickFig4(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-quick", "-exp", "fig4", "-runs", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig 4") || !strings.Contains(out, "tau") {
		t.Fatalf("fig4 output malformed:\n%s", out)
	}
}

func TestRunQuickFig9(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-quick", "-exp", "fig9", "-estruns", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "EM-Ext") {
		t.Fatalf("fig9 output missing algorithms:\n%s", sb.String())
	}
}

func TestRunSelectsMultiple(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-quick", "-exp", "table1,fig6", "-runs", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "==== table1 ====") || !strings.Contains(out, "==== fig6 ====") {
		t.Fatalf("multi-select output malformed:\n%s", out)
	}
	if strings.Contains(out, "==== fig9 ====") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-quick", "-exp", "fig6,fig9", "-runs", "1", "-estruns", "2", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig6.csv", "fig9.csv"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if !strings.Contains(string(raw), ",") {
			t.Fatalf("%s not CSV:\n%s", name, raw)
		}
	}
}

// TestRunBenchQuick runs the CI bench step through run(): the ledger file
// holds hot, qual and bound rows and nothing else, and the fixed-limit gate
// passed on it.
func TestRunBenchQuick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_layers.json")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "bench", "-quick", "-benchout", path}, &sb); err != nil {
		t.Fatalf("bench gate: %v\n%s", err, sb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep eval.BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, row := range rep.Rows {
		layers[row.Layer] = true
	}
	if !layers["hot"] || !layers["qual"] || !layers["bound"] || len(layers) != 3 {
		t.Fatalf("ledger layers = %v, want hot, qual and bound", layers)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("decoded ledger fails the gate: %v", err)
	}
}
