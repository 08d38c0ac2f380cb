package ingest

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecoverRefusesInconsistentSnapshot: recovery refuses, with an error, a
// snapshot whose counters are negative, whose text table does not have one
// text per cluster, or whose estimator knows more assertions than the
// clusterer has clusters. The unmodified snapshot recovers.
func TestRecoverRefusesInconsistentSnapshot(t *testing.T) {
	_, tweets := testTweets(t, 60, 7)
	opts := Options{BatchSize: 16, SnapshotEvery: 2, TopK: 10, DisableShedding: true, Dir: t.TempDir()}
	if _, err := runPipeline(t, &SliceSource{Tweets: tweets[:96]}, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(opts.Dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*persistedState)
		want string // "" for a snapshot that recovers
	}{
		{"unmodified", func(*persistedState) {}, ""},
		{"negative batches", func(st *persistedState) { st.Batches = -1 }, "negative counters"},
		{"negative tweets", func(st *persistedState) { st.Tweets = -1 }, "negative counters"},
		{"negative resume seq", func(st *persistedState) { st.ResumeSeq = -1 }, "negative counters"},
		{"short texts", func(st *persistedState) { st.Texts = st.Texts[:len(st.Texts)-1] }, "texts for"},
		{"long texts", func(st *persistedState) { st.Texts = append(st.Texts, "extra") }, "texts for"},
		{"estimator ahead of clusterer", func(st *persistedState) {
			c := st.Cluster
			c.Leaders, c.LeaderTokens = c.Leaders[:len(c.Leaders)-1], c.LeaderTokens[:len(c.LeaderTokens)-1]
			st.Texts = st.Texts[:len(st.Texts)-1]
		}, "assertions but the clusterer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st persistedState
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			tc.mut(&st)
			raw, err := json.Marshal(&st)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Dir = t.TempDir()
			if err := os.WriteFile(filepath.Join(o.Dir, snapshotFile), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			p, err := New(context.Background(), &SliceSource{}, o)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("recovery error %v, want one naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
