package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// TestOutputGolden runs the example and compares everything it prints,
// byte for byte, with testdata/golden.txt. Regenerate deliberately with
//
//	go test ./examples/breakingnews -update
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update after a deliberate change)\n--- got:\n%s--- want:\n%s", path, got, want)
	}
}
