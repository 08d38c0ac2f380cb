package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"depsense/internal/cluster"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/ingest"
	"depsense/internal/obs"
	"depsense/internal/qual"
	"depsense/internal/randutil"
	"depsense/internal/stream"
	"depsense/internal/trace"
	"depsense/internal/twittersim"
)

// ingestSpec sizes one ingest workload. Both are closed loops: the source
// hands out tweets as fast as the pipeline drains them, losslessly.
type ingestSpec struct {
	scale int // Ukraine scenario downscale divisor
	batch int // tweets per committed batch
	// crashAfter > 0 turns persistence on: set-up commits that many
	// batches, takes the data directory as a crash would leave it, and each
	// rep recovers from a copy of it and catches up on the rest.
	crashAfter int
	quality    bool // attach the quality monitor at ssingest -quality defaults
}

var (
	// catchupSpec: a restarted ssingest catching up on a backlog, Table III
	// scale. Refits over the growing corpus are nearly all of the run, and
	// neither the quality monitor nor the bound is present.
	catchupSpec = ingestSpec{scale: 1, batch: 64, crashAfter: 56}
	// qualitySpec: ssingest -quality, whose bound evaluation every 8 refits
	// is most of the run while plain refits stay cheap. Enough batches that
	// the tail percentile falls inside the bound-evaluation batches rather
	// than on their edge.
	qualitySpec = ingestSpec{scale: 4, batch: 16, quality: true}
)

const (
	emSeed     = 1   // ssingest's -em-seed default
	ingestTopK = 100 // ssingest's -topk default
	// traceBuffer keeps every batch's refit trace of a rep in the flight
	// recorder.
	traceBuffer = 256
)

// ranking is a published top-K: assertion ids and the bits of their
// posteriors, so equality is exact.
type ranking struct {
	ids  []int
	bits []uint64
}

func (r ranking) equal(o ranking) bool {
	if len(r.ids) != len(o.ids) {
		return false
	}
	for i := range r.ids {
		if r.ids[i] != o.ids[i] || r.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

func publishedRanking(p *ingest.Published) ranking {
	var r ranking
	for _, ra := range p.Ranked {
		r.ids = append(r.ids, ra.Assertion)
		r.bits = append(r.bits, math.Float64bits(ra.Posterior))
	}
	return r
}

// ingestInput is everything an ingest rep needs, built before any clock
// starts.
type ingestInput struct {
	tweets  []ingest.Tweet
	batches int     // committed batches over the whole stream
	want    ranking // the final ranking of a direct stream.Estimator
	// precision is the top_precision of want: every rep must publish
	// exactly want, so it is also the rep's.
	precision float64
}

func ingestOptions(spec ingestSpec) ingest.Options {
	o := ingest.Options{
		Stream:          stream.Options{EM: core.Options{Seed: emSeed, Workers: 1}},
		BatchSize:       spec.batch,
		DisableShedding: true,
		TopK:            ingestTopK,
		TraceBuffer:     traceBuffer,
	}
	if spec.quality {
		o.Quality = &qual.Options{BoundSeed: emSeed, Workers: 1}
	}
	return o
}

// worldSeed pins the simulated world behind the ingest stream (ssingest's
// -seed default). Single worlds differ too much to compare runs across
// them: over five seeds the Table III-scale world's top-100 precision
// ranged 0.30-0.85 and its refit p50 44-55 ms.
const worldSeed = 1

// makeIngestInput generates the tweet stream and computes the reference
// ranking: the same batches fed to a stream.Estimator directly, graded
// against the simulator's ground truth. The seed relabels the world's
// sources with a random permutation, so each seed feeds the pipeline
// different source ids over the same stream.
func makeIngestInput(spec ingestSpec, seed int64) (*ingestInput, error) {
	w, err := twittersim.Generate(twittersim.Small("Ukraine", spec.scale), randutil.New(worldSeed))
	if err != nil {
		return nil, fmt.Errorf("generate stream: %w", err)
	}
	relabel := randutil.New(seed).Perm(w.Graph.N())
	src := ingest.NewFirehoseSource(w, w.Firehose(twittersim.FirehoseOptions{}))
	in := &ingestInput{}
	for {
		tw, ok := src.Next(context.Background())
		if !ok {
			break
		}
		tw.Source = relabel[tw.Source]
		if tw.RetweetOf >= 0 {
			tw.RetweetOf = relabel[tw.RetweetOf]
		}
		in.tweets = append(in.tweets, tw)
	}
	in.batches = (len(in.tweets) + spec.batch - 1) / spec.batch
	if spec.crashAfter >= in.batches {
		return nil, fmt.Errorf("stream of %d batches leaves nothing to catch up after batch %d", in.batches, spec.crashAfter)
	}

	inc := (&cluster.Leader{}).Incremental()
	est := stream.New(ingestOptions(spec).Stream)
	assign := make([]int, 0, len(in.tweets))
	for at := 0; at < len(in.tweets); at += spec.batch {
		var events []depgraph.Event
		for _, tw := range in.tweets[at:min(at+spec.batch, len(in.tweets))] {
			cid := inc.Add(cluster.Tokenize(tw.Text))
			assign = append(assign, cid)
			events = append(events, depgraph.Event{Source: tw.Source, Assertion: cid, Time: tw.Time})
			if tw.RetweetOf >= 0 && tw.RetweetOf != tw.Source {
				if err := est.ObserveFollow(tw.Source, tw.RetweetOf); err != nil {
					return nil, fmt.Errorf("reference follow: %w", err)
				}
			}
		}
		if _, err := est.AddBatch(events); err != nil {
			return nil, fmt.Errorf("reference batch at %d: %w", at, err)
		}
	}
	res, err := est.Result()
	if err != nil {
		return nil, fmt.Errorf("reference result: %w", err)
	}
	for _, j := range res.TopK(ingestTopK) {
		in.want.ids = append(in.want.ids, j)
		in.want.bits = append(in.want.bits, math.Float64bits(res.Posterior[j]))
	}
	if in.precision, err = topPrecision(in.want.ids, assign, w.Tweets, w.Kinds); err != nil {
		return nil, err
	}
	return in, nil
}

// gatedSource replays a tweet slice but blocks before tweet stopAt until
// release is closed, so the pipeline drains to a batch boundary and sits
// idle there.
type gatedSource struct {
	tweets  []ingest.Tweet
	next    int
	stopAt  int
	release chan struct{}
}

func (s *gatedSource) Next(ctx context.Context) (ingest.Tweet, bool) {
	if s.next == s.stopAt {
		select {
		case <-s.release:
		case <-ctx.Done():
			return ingest.Tweet{}, false
		}
	}
	if s.next >= len(s.tweets) || ctx.Err() != nil {
		return ingest.Tweet{}, false
	}
	t := s.tweets[s.next]
	s.next++
	return t, true
}

func (s *gatedSource) Seek(seq int) { s.next = seq }

// prepareCrashImage commits spec.crashAfter batches with persistence on
// and copies the data directory while the pipeline idles at that batch
// boundary: exactly what a crash there leaves behind (a snapshot plus the
// batches logged after it). The pipeline then runs on uninterrupted; its
// final ranking is returned.
func prepareCrashImage(ctx context.Context, spec ingestSpec, in *ingestInput, live, image string) (ranking, error) {
	src := &gatedSource{tweets: in.tweets, stopAt: spec.crashAfter * spec.batch, release: make(chan struct{})}
	opts := ingestOptions(spec)
	opts.Dir = live
	var final *ingest.Published
	var copyErr error
	opts.OnPublish = func(p *ingest.Published) {
		final = p
		if p.Batch == spec.crashAfter-1 {
			// Every batch so far is logged and synced before it is
			// published, and the gated source leaves the pipeline
			// nothing more to write.
			copyErr = copyDir(live, image)
			close(src.release)
		}
	}
	pipe, err := ingest.New(ctx, src, opts)
	if err != nil {
		return ranking{}, fmt.Errorf("uninterrupted pipeline: %w", err)
	}
	if err := pipe.Run(ctx); err != nil {
		return ranking{}, fmt.Errorf("uninterrupted run: %w", err)
	}
	if copyErr != nil {
		return ranking{}, fmt.Errorf("copy crash image: %w", copyErr)
	}
	if final == nil || final.Batch != in.batches-1 {
		return ranking{}, fmt.Errorf("uninterrupted run did not publish batch %d", in.batches-1)
	}
	return publishedRanking(final), nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func runIngestCatchup(cfg config, o *outcome) error { return runIngest(cfg, o, catchupSpec) }
func runIngestQuality(cfg config, o *outcome) error { return runIngest(cfg, o, qualitySpec) }

func runIngest(cfg config, o *outcome, spec ingestSpec) error {
	ctx := context.Background()
	in, err := makeIngestInput(spec, cfg.seed)
	if err != nil {
		return err
	}
	var image string
	if spec.crashAfter > 0 {
		image = filepath.Join(cfg.dir, "crash-image")
		uninterrupted, err := prepareCrashImage(ctx, spec, in, filepath.Join(cfg.dir, "uninterrupted"), image)
		if err != nil {
			return err
		}
		if !uninterrupted.equal(in.want) {
			o.fail("uninterrupted pipeline ranking differs from the direct estimator's")
		}
	}
	if err := recordGeneratorRSS(o); err != nil {
		return err
	}

	n := 0
	reps, err := repeat(cfg, func(traced bool) (rep, error) {
		n++
		dir := ""
		if image != "" {
			dir = filepath.Join(cfg.dir, fmt.Sprintf("rep-%d", n))
			if err := copyDir(image, dir); err != nil {
				return rep{}, fmt.Errorf("copy crash image: %w", err)
			}
			defer os.RemoveAll(dir)
		}
		return ingestRep(ctx, spec, in, dir, traced, o)
	})
	if err != nil {
		return err
	}
	if err := recordPeakRSS(o); err != nil {
		return err
	}
	o.set("top_precision", in.precision)
	return summarize(reps, o)
}

// histReading is a histogram's count and sum; the difference of two
// readings is what happened between them.
type histReading struct {
	count float64
	sum   float64
}

func readHist(reg *obs.Registry, name string, labels ...obs.Label) histReading {
	h := reg.Histogram(name, "", nil, labels...)
	return histReading{count: float64(h.Count()), sum: h.Sum()}
}

func (h histReading) minus(b histReading) histReading {
	return histReading{count: h.count - b.count, sum: h.sum - b.sum}
}

// meanMS is the mean observation in ms, 0 for none.
func (h histReading) meanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count * 1000
}

// ingestReadings are the registry values the traced reps difference.
type ingestReadings struct {
	stages     map[string]histReading
	coreFit    histReading
	observe    histReading
	bound      histReading
	snapshots  float64
	totalAlloc uint64
}

var ingestStages = []string{"cluster", "wal", "fit", "publish"}

func readIngest(reg *obs.Registry) ingestReadings {
	r := ingestReadings{stages: map[string]histReading{}}
	for _, s := range ingestStages {
		r.stages[s] = readHist(reg, ingest.MetricStageSeconds, obs.L("stage", s))
	}
	warm := readHist(reg, stream.MetricFitSeconds, obs.L("mode", "warm"))
	cold := readHist(reg, stream.MetricFitSeconds, obs.L("mode", "cold"))
	r.coreFit = histReading{count: warm.count + cold.count, sum: warm.sum + cold.sum}
	r.observe = readHist(reg, qual.MetricObserveSeconds)
	r.bound = readHist(reg, qual.MetricBoundSeconds)
	r.snapshots = reg.Counter(ingest.MetricSnapshots, "").Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.totalAlloc = ms.TotalAlloc
	return r
}

// ingestRep recovers (or builds) a pipeline, times it until it accepts
// input, drains the rest of the stream through it, and checks the final
// ranking.
func ingestRep(ctx context.Context, spec ingestSpec, in *ingestInput, dir string, traced bool, o *outcome) (rep, error) {
	opts := ingestOptions(spec)
	opts.Dir = dir
	var (
		last   time.Time
		gaps   []float64
		pubs   []*ingest.Published
		queue  []float64
		qGauge *obs.Gauge
	)
	opts.OnPublish = func(p *ingest.Published) {
		now := time.Now()
		gaps = append(gaps, float64(now.Sub(last))/float64(time.Millisecond))
		last = now
		pubs = append(pubs, p)
		if qGauge != nil {
			queue = append(queue, qGauge.Value())
		}
	}
	src := &ingest.SliceSource{Tweets: in.tweets}

	// Without a data directory set-up takes microseconds, too short for one
	// reading to repeat; only the last pipeline built runs. Recovery runs
	// once per copy of the crash image.
	trials := setupTrials
	if dir != "" {
		trials = 1
	}
	var pipe *ingest.Pipeline
	setup, err := timeSetup(trials, func() error {
		p, err := ingest.New(ctx, src, opts)
		if err != nil {
			return fmt.Errorf("start pipeline: %w", err)
		}
		pipe = p
		return nil
	})
	if err != nil {
		return rep{}, err
	}

	reg := pipe.Metrics()
	startTweets := 0
	if p := pipe.Published(); p != nil {
		startTweets = p.Tweets
	}
	var before ingestReadings
	if traced {
		qGauge = reg.Gauge(ingest.MetricQueueDepth, "", obs.L("queue", "batch"))
		before = readIngest(reg)
	}
	runStart := time.Now()
	last = runStart
	if err := pipe.Run(ctx); err != nil {
		return rep{}, fmt.Errorf("run pipeline: %w", err)
	}
	wall := time.Since(runStart).Seconds()

	fed := len(in.tweets) - startTweets
	o.attempted += fed
	if shed := reg.Counter(ingest.MetricTweets, "", obs.L("outcome", "dropped")).Value(); shed > 0 {
		o.failN(int(shed), "%g tweets shed", shed)
	}
	if len(pubs) == 0 {
		return rep{}, fmt.Errorf("pipeline published nothing")
	}
	final := pubs[len(pubs)-1]
	committed := final.Tweets - startTweets
	switch {
	case final.Batch != in.batches-1 || committed != fed:
		o.fail("final publish is batch %d with %d tweets, want batch %d with %d", final.Batch, committed, in.batches-1, fed)
	case !publishedRanking(final).equal(in.want):
		// Equal to the direct estimator; on ingest-catchup it was checked
		// equal to the uninterrupted run's ranking too.
		o.fail("final ranking after batch %d differs from the reference", final.Batch)
	}

	r := rep{setup: setup, ops: committed, wall: wall, lat: gaps}
	if traced {
		after := readIngest(reg)
		r.layers = ingestLayers(before, after, reg, pipe.Flight(), pubs, queue, wall, committed)
		if spec.quality {
			checkTailIsBound(gaps, pubs, o)
		}
	}
	return r, nil
}

// ingestLayers derives the per-layer values of one traced rep.
func ingestLayers(before, after ingestReadings, reg *obs.Registry, flight *trace.FlightRecorder,
	pubs []*ingest.Published, queue []float64, wall float64, tweets int) map[string]float64 {
	stage := func(s string) histReading { return after.stages[s].minus(before.stages[s]) }
	wal, fit := stage("wal"), stage("fit")
	coreFit := after.coreFit.minus(before.coreFit)
	observe := after.observe.minus(before.observe)
	bnd := after.bound.minus(before.bound)

	var refits []float64
	for _, s := range flight.Index() {
		t, ok := flight.Get(s.ID)
		if !ok || t.Name != "ingest" {
			continue
		}
		for _, st := range t.Stages {
			if st.Name == "fit" {
				refits = append(refits, float64(st.DurationNS)/1e6)
			}
		}
	}
	sort.Float64s(refits)
	var refitP50, refitTail float64
	if len(refits) > 0 {
		refitP50 = percentile(refits, 50)
		if t, ok := tail(refits); ok {
			refitTail = t.value
		}
	}
	var iters []float64
	for _, p := range pubs {
		iters = append(iters, float64(p.Iterations))
	}
	build := 0.0
	if fit.count > 0 {
		// The refit stage is BuildDataset, the core fit and the quality
		// observer; the first is what is left of it.
		build = (fit.sum - coreFit.sum - observe.sum - bnd.sum) / fit.count * 1000
	}
	return map[string]float64{
		"stream.refit_ms_p50":       refitP50,
		"stream.refit_ms_tail":      refitTail,
		"stream.refit_share":        fit.sum / wall,
		"depgraph.build_ms_mean":    build,
		"core.fit_ms_mean":          coreFit.meanMS(),
		"core.em_iters_mean":        mean(iters),
		"ingest.wal_ms_mean":        wal.meanMS(),
		"ingest.snapshots":          after.snapshots - before.snapshots,
		"ingest.replayed_batches":   reg.Counter(ingest.MetricReplayedBatches, "").Value(),
		"ingest.publish_ms_mean":    stage("publish").meanMS(),
		"ingest.batch_queue_mean":   mean(queue),
		"ingest.alloc_kb_per_tweet": float64(after.totalAlloc-before.totalAlloc) / 1024 / float64(tweets),
		"ingest.estimator_share":    (wal.sum + fit.sum) / wall,
		"cluster.ms_per_batch":      stage("cluster").meanMS(),
		"qual.observe_ms_mean":      observe.meanMS(),
		"bound.evals":               bnd.count,
		"bound.eval_ms_mean":        bnd.meanMS(),
		"bound.share":               bnd.sum / wall,
	}
}

// checkTailIsBound checks that the batch behind the tail latency sample
// evaluated the error bound: the tail of ingest-quality is meant to
// measure the bound, not the edge between bound batches and plain refits.
func checkTailIsBound(gaps []float64, pubs []*ingest.Published, o *outcome) {
	idx := make([]int, len(gaps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return gaps[idx[a]] < gaps[idx[b]] })
	sorted := make([]float64, len(gaps))
	for i, j := range idx {
		sorted[i] = gaps[j]
	}
	t, ok := tail(sorted)
	if !ok {
		o.fail("too few batches (%d) for a tail percentile", len(gaps))
		return
	}
	p := pubs[idx[t.rank-1]]
	if q := p.Quality; q == nil || q.Bound == nil || q.Bound.Tick != q.Tick {
		o.fail("tail sample p%d (%.1f ms) is batch %d, which did not evaluate the bound", t.pct, t.value, p.Batch)
	}
}
