package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

func writeTweetFile(t *testing.T, withKinds bool) string {
	t.Helper()
	sc := twittersim.Small("Kirkuk", 40)
	w, err := twittersim.Generate(sc, randutil.New(9))
	if err != nil {
		t.Fatal(err)
	}
	file := tweetFile{Sources: sc.Sources, Tweets: w.Tweets}
	if withKinds {
		file.Kinds = w.Kinds
	}
	for i := 0; i < w.Graph.N(); i++ {
		for _, anc := range w.Graph.Ancestors(i) {
			file.Follows = append(file.Follows, [2]int{i, anc})
		}
	}
	raw, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tweets.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPipelineWithGrading(t *testing.T) {
	path := writeTweetFile(t, true)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", path, "-alg", "EM-Ext", "-topk", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "pipeline: EM-Ext") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "graded top-5") {
		t.Fatalf("missing grading:\n%s", out)
	}
	if !strings.Contains(out, "  1. p=") {
		t.Fatalf("missing ranking:\n%s", out)
	}
}

func TestPipelineWithoutKinds(t *testing.T) {
	path := writeTweetFile(t, false)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", path, "-alg", "Voting", "-topk", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "graded") {
		t.Fatal("grading without ground truth")
	}
}

// TestExtendedRoster: -alg resolves against the same nine-algorithm roster
// ssserve serves, so the Pasternack & Roth extensions run here too.
func TestExtendedRoster(t *testing.T) {
	path := writeTweetFile(t, true)
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", path, "-alg", "PooledInvestment", "-topk", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pipeline: PooledInvestment") {
		t.Fatalf("missing header:\n%s", sb.String())
	}
}

func TestValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{}, &sb); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run(context.Background(), []string{"-in", "/does/not/exist.json"}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeTweetFile(t, true)
	if err := run(context.Background(), []string{"-in", path, "-alg", "Oracle"}, &sb); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	garbage := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(garbage, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-in", garbage}, &sb); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

func TestTwitterJSONFormat(t *testing.T) {
	archive := `{"id_str":"1","text":"explosion near bridge7 n4 #x","created_at":"Sat Mar 14 10:00:00 +0000 2015","user":{"id_str":"42","screen_name":"alice"}}
{"id_str":"2","text":"RT @alice: explosion near bridge7 n4 #x","created_at":"Sat Mar 14 10:05:00 +0000 2015","user":{"id_str":"77"},"retweeted_status":{"id_str":"1","user":{"id_str":"42"}}}`
	path := filepath.Join(t.TempDir(), "archive.jsonl")
	if err := os.WriteFile(path, []byte(archive), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", path, "-format", "twitter-json", "-alg", "Voting", "-topk", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dependent=1") {
		t.Fatalf("output missing dependency:\n%s", sb.String())
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", "x", "-format", "csv"}, &sb); err == nil {
		t.Fatal("unknown format accepted")
	}
}
