package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/obs"
	"depsense/internal/randutil"
	"depsense/internal/stream"
	"depsense/internal/twittersim"
)

// testTweets materializes a seeded world's stream as ingest tweets (via the
// firehose adapter, unpaced).
func testTweets(t *testing.T, scale int, seed int64) (*twittersim.World, []Tweet) {
	t.Helper()
	w, err := twittersim.Generate(twittersim.Small("Ukraine", scale), randutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := NewFirehoseSource(w, w.Firehose(twittersim.FirehoseOptions{}))
	var tweets []Tweet
	ctx := context.Background()
	for {
		tw, ok := src.Next(ctx)
		if !ok {
			break
		}
		tweets = append(tweets, tw)
	}
	if len(tweets) != len(w.Tweets) {
		t.Fatalf("adapter emitted %d tweets, want %d", len(tweets), len(w.Tweets))
	}
	return w, tweets
}

// directRun feeds the same tweet stream to cluster.Incremental +
// stream.Estimator by hand — the reference the pipeline must match
// bit-for-bit. Returns per-batch posteriors, top-K ids, and the text table.
func directRun(t *testing.T, tweets []Tweet, batchSize, topK int, streamOpts stream.Options) ([][]float64, [][]int, []string) {
	t.Helper()
	inc := (&cluster.Leader{}).Incremental()
	est := stream.New(streamOpts)
	var texts []string
	var posteriors [][]float64
	var rankings [][]int
	for at := 0; at < len(tweets); at += batchSize {
		end := at + batchSize
		if end > len(tweets) {
			end = len(tweets)
		}
		var events []depgraph.Event
		for _, tw := range tweets[at:end] {
			toks := cluster.Tokenize(tw.Text)
			before := inc.NumClusters()
			cid := inc.Add(toks)
			if inc.NumClusters() > before {
				texts = append(texts, tw.Text)
			}
			events = append(events, depgraph.Event{Source: tw.Source, Assertion: cid, Time: tw.Time})
			if tw.RetweetOf >= 0 && tw.RetweetOf != tw.Source {
				if err := est.ObserveFollow(tw.Source, tw.RetweetOf); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := est.AddBatch(events)
		if err != nil {
			t.Fatal(err)
		}
		posteriors = append(posteriors, append([]float64(nil), res.Posterior...))
		rankings = append(rankings, res.TopK(topK))
	}
	return posteriors, rankings, texts
}

// runPipeline executes a pipeline over the tweets and captures every
// published ranking.
func runPipeline(t *testing.T, src Source, opts Options) ([]*Published, error) {
	t.Helper()
	var pubs []*Published
	opts.OnPublish = func(p *Published) { pubs = append(pubs, p) }
	p, err := New(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pubs, p.Run(context.Background())
}

// TestPipelineMatchesDirectEstimator is the tentpole's determinism
// contract: the staged pipeline's published rankings are bit-identical to
// feeding the same batches to stream.Estimator directly — per batch, at EM
// worker counts 1 and 4.
func TestPipelineMatchesDirectEstimator(t *testing.T) {
	const batchSize, topK = 16, 50
	_, tweets := testTweets(t, 60, 7)
	streamOpts := stream.Options{}
	wantPost, wantRank, wantTexts := directRun(t, tweets, batchSize, topK, streamOpts)

	var runs [][]*Published
	for _, workers := range []int{1, 4} {
		opts := Options{
			Stream:          stream.Options{EM: core.Options{Workers: workers}},
			BatchSize:       batchSize,
			TopK:            topK,
			DisableShedding: true,
		}
		pubs, err := runPipeline(t, &SliceSource{Tweets: tweets}, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(pubs) != len(wantPost) {
			t.Fatalf("workers=%d: %d publishes, want %d batches", workers, len(pubs), len(wantPost))
		}
		for k, pub := range pubs {
			if pub.Batch != k {
				t.Fatalf("workers=%d: publish %d has batch seq %d", workers, k, pub.Batch)
			}
			if len(pub.Ranked) != len(wantRank[k]) {
				t.Fatalf("workers=%d batch %d: %d ranked, want %d", workers, k, len(pub.Ranked), len(wantRank[k]))
			}
			for i, ra := range pub.Ranked {
				if ra.Assertion != wantRank[k][i] {
					t.Fatalf("workers=%d batch %d rank %d: assertion %d, want %d",
						workers, k, i, ra.Assertion, wantRank[k][i])
				}
				if ra.Posterior != wantPost[k][ra.Assertion] {
					t.Fatalf("workers=%d batch %d assertion %d: posterior %v, want %v (bit-exact)",
						workers, k, ra.Assertion, ra.Posterior, wantPost[k][ra.Assertion])
				}
				if ra.Text != wantTexts[ra.Assertion] {
					t.Fatalf("workers=%d batch %d assertion %d: text %q, want %q",
						workers, k, ra.Assertion, ra.Text, wantTexts[ra.Assertion])
				}
			}
		}
		runs = append(runs, pubs)
	}

	// Worker count leaves no trace at all in the published output.
	for k := range runs[0] {
		a, b := *runs[0][k], *runs[1][k]
		a.UpdatedAtUnixNS, b.UpdatedAtUnixNS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("batch %d: published output differs between Workers=1 and Workers=4:\n%+v\n%+v", k, a, b)
		}
	}
}

// TestPipelineKillAndRestartMatchesUninterrupted is the crash/restart-warm
// contract: cancel the service mid-stream (crash-equivalent — no final
// snapshot), restart it over the same directory, and the completed run's
// persisted state is byte-identical to an uninterrupted run's.
func TestPipelineKillAndRestartMatchesUninterrupted(t *testing.T) {
	const batchSize, snapEvery, topK = 8, 2, 25
	world, _ := testTweets(t, 60, 7)
	base := func(dir string) Options {
		return Options{
			Stream:          stream.Options{},
			BatchSize:       batchSize,
			SnapshotEvery:   snapEvery,
			TopK:            topK,
			DisableShedding: true,
			Dir:             dir,
		}
	}

	// Run A: uninterrupted.
	dirA := t.TempDir()
	pubsA, err := runPipeline(t, NewFirehoseSource(world, world.Firehose(twittersim.FirehoseOptions{})), base(dirA))
	if err != nil {
		t.Fatal(err)
	}
	if len(pubsA) == 0 {
		t.Fatal("run A published nothing")
	}

	// Run B: killed after the 5th publish.
	dirB := t.TempDir()
	ctxB, cancelB := context.WithCancel(context.Background())
	killed := 0
	optsB := base(dirB)
	optsB.OnPublish = func(*Published) {
		killed++
		if killed == 5 {
			cancelB()
		}
	}
	pb, err := New(context.Background(), NewFirehoseSource(world, world.Firehose(twittersim.FirehoseOptions{})), optsB)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Run(ctxB); err == nil {
		t.Fatal("killed run reported clean shutdown")
	}
	if killed >= len(pubsA) {
		t.Fatalf("kill landed after the stream ended (%d publishes)", killed)
	}

	// Run C: restart over run B's directory; recovery replays the claim
	// log on top of the last snapshot, then the source resumes where the
	// committed stream left off.
	var pubsC []*Published
	optsC := base(dirB)
	optsC.OnPublish = func(p *Published) { pubsC = append(pubsC, p) }
	pc, err := New(context.Background(), NewFirehoseSource(world, world.Firehose(twittersim.FirehoseOptions{})), optsC)
	if err != nil {
		t.Fatal(err)
	}
	// (pc.Published() is non-nil here only when the kill landed between
	// snapshot boundaries — the replay then rebuilt a ranking; when the
	// last commit coincided with a snapshot there is nothing to replay.)
	if err := pc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(pubsC) == 0 {
		t.Fatal("run C published nothing")
	}

	// The replayed run reconverges exactly: final snapshots byte-for-byte.
	snapA, err := os.ReadFile(filepath.Join(dirA, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snapC, err := os.ReadFile(filepath.Join(dirB, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(snapA) != string(snapC) {
		t.Fatalf("final snapshots differ after kill+restart:\nA: %d bytes\nC: %d bytes", len(snapA), len(snapC))
	}

	// And the final published ranking matches the uninterrupted run's.
	finalA, finalC := *pubsA[len(pubsA)-1], *pubsC[len(pubsC)-1]
	finalA.UpdatedAtUnixNS, finalC.UpdatedAtUnixNS = 0, 0
	if !reflect.DeepEqual(finalA, finalC) {
		t.Fatalf("final published ranking differs:\nA: %+v\nC: %+v", finalA, finalC)
	}
}

// TestPipelineRecoversTornLog: a crash mid-append leaves a truncated final
// line; recovery skips it, heals the log, and the service resumes.
func TestPipelineRecoversTornLog(t *testing.T) {
	world, _ := testTweets(t, 60, 7)
	dir := t.TempDir()
	opts := Options{
		Stream:          stream.Options{},
		BatchSize:       16,
		SnapshotEvery:   1000, // no periodic snapshots: the log carries everything
		DisableShedding: true,
		Dir:             dir,
	}

	// First run: cancel after two publishes, so no snapshot exists and the
	// log is the only state.
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	opts.OnPublish = func(*Published) {
		n++
		if n == 2 {
			cancel()
		}
	}
	p, err := New(context.Background(), NewFirehoseSource(world, world.Firehose(twittersim.FirehoseOptions{})), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(ctx); err == nil {
		t.Fatal("cancelled run reported clean shutdown")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crash-equivalent exit wrote a snapshot (err=%v)", err)
	}

	// Tear the log: a partial record with no newline, crash mid-append.
	logPath := filepath.Join(dir, logFile)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"tweet","seq":999,"sour`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: recovery reports the torn tail, heals the log, resumes.
	opts.OnPublish = nil
	p2, err := New(context.Background(), NewFirehoseSource(world, world.Firehose(twittersim.FirehoseOptions{})), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Metrics().Counter(MetricTornLog, "").Value(); got != 1 {
		t.Fatalf("torn-log counter = %v, want 1", got)
	}
	if p2.Published() == nil {
		t.Fatal("recovery replayed batches but published nothing")
	}
	// The healed log parses clean.
	if err := p2.wal.Close(); err != nil {
		t.Fatal(err)
	}
	p2.wal = nil
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	recs, torn, err := claims.ReadLog(lf)
	if err != nil {
		t.Fatal(err)
	}
	if torn != nil {
		t.Fatalf("log still torn after healing (%d bytes): %+v", len(data), torn)
	}
	if len(recs) == 0 {
		t.Fatal("healed log is empty")
	}
}

// TestPipelineShedsRawOnly: with the raw queue full, the collector drops
// raw tweets (counted) instead of blocking — and with shedding disabled it
// blocks instead.
func TestPipelineShedsRawOnly(t *testing.T) {
	tweets := make([]Tweet, rawQueue+2)
	for i := range tweets {
		tweets[i] = Tweet{Seq: i, Source: i % 3, Text: "alpha beta", RetweetOf: -1}
	}
	p, err := New(context.Background(), &SliceSource{Tweets: tweets}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := p.Metrics()
	// White box: run only the collector, with no clusterer draining, so
	// the raw queue fills after its first rawQueue tweets.
	p.collector(context.Background())
	if got := reg.Counter(MetricTweets, "", obs.L("outcome", "accepted")).Value(); got != rawQueue {
		t.Fatalf("accepted = %v, want %d", got, rawQueue)
	}
	if got := reg.Counter(MetricTweets, "", obs.L("outcome", "dropped")).Value(); got != 2 {
		t.Fatalf("dropped = %v, want 2", got)
	}

	// Lossless mode blocks instead: cancellation is the only way out.
	p2, err := New(context.Background(), &SliceSource{Tweets: tweets}, Options{
		DisableShedding: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p2.collector(ctx)
		close(done)
	}()
	// The collector must be blocked, not dropping.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("lossless collector finished with a full queue")
	default:
	}
	cancel()
	<-done
	if got := p2.Metrics().Counter(MetricTweets, "", obs.L("outcome", "dropped")).Value(); got != 0 {
		t.Fatalf("lossless mode dropped %v tweets", got)
	}
}

// TestPipelineQueueAndBatchTelemetry: committed batches, queue capacity
// gauges, and per-stage histograms land in the registry.
func TestPipelineQueueAndBatchTelemetry(t *testing.T) {
	_, tweets := testTweets(t, 60, 7)
	opts := Options{
		Stream:          stream.Options{},
		BatchSize:       32,
		DisableShedding: true,
		TraceBuffer:     8,
	}
	var pubs []*Published
	opts.OnPublish = func(p *Published) { pubs = append(pubs, p) }
	p, err := New(context.Background(), &SliceSource{Tweets: tweets}, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := p.Metrics()
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBatches := (len(tweets) + 31) / 32
	if got := reg.Counter(MetricBatches, "").Value(); got != float64(wantBatches) {
		t.Fatalf("batches counter = %v, want %d", got, wantBatches)
	}
	if got := reg.Gauge(MetricQueueCapacity, "", obs.L("queue", "raw")).Value(); got != rawQueue {
		t.Fatalf("raw capacity gauge = %v, want %d", got, rawQueue)
	}
	for _, stage := range []string{"cluster", "wal", "fit", "publish"} {
		h := reg.Histogram(MetricStageSeconds, "", nil, obs.L("stage", stage))
		want := uint64(wantBatches)
		if stage == "wal" {
			want = 0 // persistence disabled
		}
		if h.Count() != want {
			t.Fatalf("stage %q histogram count = %d, want %d", stage, h.Count(), want)
		}
	}
	// Stream gauges rode along via the estimator.
	last := pubs[len(pubs)-1]
	if got := reg.Gauge(stream.MetricSources, "").Value(); got != float64(last.Sources) {
		t.Fatalf("sources gauge = %v, want %d", got, last.Sources)
	}
	// One refit trace per batch in the flight recorder.
	if got := p.Flight().Len(); got != wantBatches {
		t.Fatalf("flight recorder retains %d traces, want %d", got, wantBatches)
	}
}
