package ingest

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/depgraph"
	"depsense/internal/jsonl"
	"depsense/internal/obs"
	"depsense/internal/qual"
	"depsense/internal/runctx"
	"depsense/internal/stream"
	"depsense/internal/trace"
)

// Pipeline is the staged ingestion service. Construct with New (which
// replays any persisted state), then Run it; the stages communicate over
// bounded channels and share no mutable state except through them.
type Pipeline struct {
	opts   Options
	reg    *obs.Registry
	log    *slog.Logger
	clock  func() time.Time
	flight *trace.FlightRecorder
	source Source
	qual   *qual.Monitor // nil when quality monitoring is disabled

	// inc and texts are owned by the clusterer stage while Run is live (the
	// estimator stage sees cluster state only via Batch.ClusterState);
	// est and the claim log are owned by the estimator stage. New touches
	// everything single-threaded during recovery.
	inc   *cluster.Incremental
	texts []string
	est   *stream.Estimator

	batchSeq  int // next batch seq to commit
	tweets    int // cumulative accepted tweets committed
	resumeSeq int // first source seq not yet committed

	wal              *walFile
	lastClusterState *cluster.IncrementalState
	lastSnapshotNS   atomic.Int64

	published atomic.Pointer[Published]

	rawCh   chan Tweet
	batchCh chan Batch
}

// batchQueue bounds the clusterer->estimator queue; a full queue
// backpressures the clusterer, never drops.
const batchQueue = 4

// rawQueue bounds the collector->clusterer queue; a full queue sheds raw
// tweets unless Options.DisableShedding.
const rawQueue = 1024

// New builds a pipeline over the source. When opts.Dir is set, it replays
// the persisted snapshot and claim log first (refitting any batches
// committed after the last snapshot), so the returned pipeline resumes
// exactly where the previous process stopped; recovery refits run under
// ctx.
func New(ctx context.Context, source Source, opts Options) (*Pipeline, error) {
	o := opts.withDefaults()
	p := &Pipeline{
		opts:   o,
		reg:    obs.NewRegistry(),
		log:    o.Logger,
		clock:  o.Clock,
		source: source,
	}
	p.flight = trace.NewFlightRecorder(o.TraceBuffer, 0)
	// The inter-stage queues exist from construction so the HTTP layer can
	// report their occupancy before and during Run without racing it.
	p.rawCh = make(chan Tweet, rawQueue)
	p.batchCh = make(chan Batch, batchQueue)

	streamOpts := o.Stream
	streamOpts.Metrics = p.reg
	streamOpts.Clock = p.clock
	if o.Quality != nil {
		qo := *o.Quality
		qo.Metrics = p.reg
		qo.Clock = p.clock
		qo.Flight = p.flight
		if qo.SpillDir == "" {
			qo.SpillDir = o.TraceDir
		}
		p.qual = qual.NewMonitor(qo)
		// The hook runs on the estimator stage's single goroutine (and on
		// the recovery goroutine before Run), so verdict ticks follow
		// commit order deterministically.
		streamOpts.OnRefit = func(ctx context.Context, ev stream.RefitEvent) {
			if _, err := p.qual.ObserveRefit(ctx, qual.Refit{
				Result:  ev.Result,
				Dataset: ev.Dataset,
				Edges:   ev.Edges,
			}); err != nil {
				p.log.Error("quality spill failed", "err", err)
			}
		}
	}
	p.est = stream.New(streamOpts)
	// The default leader clusterer; a warm restart replaces it with the
	// persisted cluster state.
	p.inc = (&cluster.Leader{}).Incremental()
	p.lastClusterState = p.inc.State()

	if o.Dir != "" {
		if err := p.recover(ctx, streamOpts); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Published returns the latest published ranking, or nil before the first
// committed batch.
func (p *Pipeline) Published() *Published { return p.published.Load() }

// Metrics returns the pipeline's registry.
func (p *Pipeline) Metrics() *obs.Registry { return p.reg }

// Flight returns the per-refit flight recorder backing /debug/runs.
func (p *Pipeline) Flight() *trace.FlightRecorder { return p.flight }

// Quality returns the estimation-quality monitor, nil when disabled.
func (p *Pipeline) Quality() *qual.Monitor { return p.qual }

// Run consumes the source until it is exhausted (returning nil, after a
// final snapshot) or ctx is cancelled (returning the cancellation cause —
// deliberately crash-equivalent: no final snapshot is written, and restart
// recovers from the claim log exactly as it would from a kill). Run may be
// called at most once per pipeline.
func (p *Pipeline) Run(ctx context.Context) error {
	if s, ok := p.source.(Seeker); ok {
		s.Seek(p.resumeSeq)
	}
	pubCh := make(chan *Published, 1)

	p.reg.Gauge(MetricQueueCapacity, "Bounded inter-stage queue capacity.",
		obs.L("queue", "raw")).Set(float64(cap(p.rawCh)))
	p.reg.Gauge(MetricQueueCapacity, "Bounded inter-stage queue capacity.",
		obs.L("queue", "batch")).Set(float64(cap(p.batchCh)))

	var wg sync.WaitGroup
	var commitErr error // written by the estimator goroutine only
	wg.Add(4)
	go func() { defer wg.Done(); p.collector(ctx) }()
	go func() { defer wg.Done(); p.clusterer(ctx) }()
	go func() { defer wg.Done(); commitErr = p.estimator(ctx, pubCh) }()
	go func() { defer wg.Done(); p.publisher(ctx, pubCh) }()
	wg.Wait()

	if p.wal != nil {
		if err := p.wal.Close(); err != nil && commitErr == nil {
			commitErr = err
		}
		p.wal = nil
	}
	if commitErr != nil {
		return commitErr
	}
	return ctx.Err()
}

// collector pulls raw tweets from the source into the bounded raw queue.
// Under overload it sheds (drops, counted) rather than blocking, so a slow
// estimator degrades coverage, never liveness — unless DisableShedding
// selects lossless backpressure all the way to the source.
func (p *Pipeline) collector(ctx context.Context) {
	defer close(p.rawCh)
	accepted := p.reg.Counter(MetricTweets, "Raw tweets by outcome.", obs.L("outcome", "accepted"))
	dropped := p.reg.Counter(MetricTweets, "Raw tweets by outcome.", obs.L("outcome", "dropped"))
	depth := p.reg.Gauge(MetricQueueDepth, "Bounded inter-stage queue depth.", obs.L("queue", "raw"))
	for {
		if ctx.Err() != nil {
			return
		}
		tw, ok := p.source.Next(ctx)
		if !ok {
			return
		}
		if p.opts.DisableShedding {
			select {
			case p.rawCh <- tw:
				accepted.Inc()
			case <-ctx.Done():
				return
			}
		} else {
			select {
			case p.rawCh <- tw:
				accepted.Inc()
			default:
				// Shed policy: raw tweets are the only thing this service
				// ever drops. Batches and committed claims downstream ride
				// lossless, backpressured channels.
				dropped.Inc()
			}
		}
		depth.Set(float64(len(p.rawCh)))
	}
}

// clusterer cuts the accepted stream into BatchSize batches and runs the
// incremental assertion extraction on each. The send into the batch queue
// blocks (backpressure): once a tweet is accepted, it is never dropped.
func (p *Pipeline) clusterer(ctx context.Context) {
	defer close(p.batchCh)
	depth := p.reg.Gauge(MetricQueueDepth, "Bounded inter-stage queue depth.", obs.L("queue", "batch"))
	stageSec := p.reg.Histogram(MetricStageSeconds,
		"Per-batch pipeline stage duration in seconds.", nil, obs.L("stage", "cluster"))
	nextSeq := p.batchSeq
	var pending []Tweet
	flush := func() bool {
		if len(pending) == 0 {
			return true
		}
		start := p.clock()
		b := p.deriveBatch(nextSeq, pending)
		stageSec.Observe(p.clock().Sub(start).Seconds())
		select {
		case p.batchCh <- b:
			nextSeq++
			pending = nil
			depth.Set(float64(len(p.batchCh)))
			return true
		case <-ctx.Done():
			return false
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case tw, ok := <-p.rawCh:
			if !ok {
				flush()
				return
			}
			pending = append(pending, tw)
			if len(pending) >= p.opts.BatchSize {
				if !flush() {
					return
				}
			}
		}
	}
}

// deriveBatch runs the assertion extraction for one batch: tokenizing,
// incremental clustering (stable ids), claim events, and retweet-derived
// follow edges. Recovery replays logged tweets through this same function,
// so a replayed batch is identical to the live one by construction.
func (p *Pipeline) deriveBatch(seq int, tweets []Tweet) Batch {
	b := Batch{Seq: seq, Tweets: tweets}
	for _, tw := range tweets {
		toks := cluster.Tokenize(tw.Text)
		before := p.inc.NumClusters()
		cid := p.inc.Add(toks)
		if p.inc.NumClusters() > before {
			b.NewTexts = append(b.NewTexts, tw.Text)
		}
		b.Events = append(b.Events, depgraph.Event{Source: tw.Source, Assertion: cid, Time: tw.Time})
		if tw.RetweetOf >= 0 && tw.RetweetOf != tw.Source {
			b.Follows = append(b.Follows, [2]int{tw.Source, tw.RetweetOf})
		}
	}
	b.ClusterState = p.inc.State()
	return b
}

// estimator commits batches: write-ahead log first (fsynced), then refit,
// then publish; snapshots every SnapshotEvery batches and once more on
// graceful shutdown. Returns the first commit error (cancellation mid-fit
// surfaces here).
func (p *Pipeline) estimator(ctx context.Context, pubCh chan<- *Published) error {
	defer close(pubCh)
	for {
		select {
		case <-ctx.Done():
			return nil
		case b, ok := <-p.batchCh:
			if !ok {
				if ctx.Err() != nil {
					// The clusterer closed the queue because of
					// cancellation, not stream end: crash-equivalent exit,
					// no final snapshot.
					return nil
				}
				// Source exhausted: graceful shutdown, seal the state.
				if p.opts.Dir != "" && p.batchSeq > 0 {
					if err := p.writeSnapshot(); err != nil {
						return err
					}
				}
				return nil
			}
			pub, err := p.commit(ctx, b)
			if err != nil {
				return err
			}
			select {
			case pubCh <- pub:
			case <-ctx.Done():
				return nil
			}
			if p.opts.Dir != "" && b.Seq%p.opts.SnapshotEvery == p.opts.SnapshotEvery-1 {
				if err := p.writeSnapshot(); err != nil {
					return err
				}
			}
		}
	}
}

// commit applies one batch: WAL append + sync, follow observation, refit
// (traced), and ranking assembly.
func (p *Pipeline) commit(ctx context.Context, b Batch) (*Published, error) {
	tb := trace.NewBuilder(fmt.Sprintf("batch-%06d", b.Seq), "ingest", p.clock)
	tb.SetAttr("batch", fmt.Sprintf("%d", b.Seq))
	tb.SetAttr("tweets", fmt.Sprintf("%d", len(b.Tweets)))

	if p.wal != nil {
		start := p.clock()
		if err := p.appendWAL(b); err != nil {
			p.finishTrace(tb, err)
			return nil, fmt.Errorf("ingest: write-ahead log batch %d: %w", b.Seq, err)
		}
		d := p.clock().Sub(start)
		tb.Stage("wal", d)
		p.reg.Histogram(MetricStageSeconds, "Per-batch pipeline stage duration in seconds.",
			nil, obs.L("stage", "wal")).Observe(d.Seconds())
	}

	for _, f := range b.Follows {
		if err := p.est.ObserveFollow(f[0], f[1]); err != nil {
			p.finishTrace(tb, err)
			return nil, fmt.Errorf("ingest: follow %v in batch %d: %w", f, b.Seq, err)
		}
	}

	fitStart := p.clock()
	fitCtx := runctx.WithHook(ctx, runctx.MultiHook(obs.HookExporter(p.reg), tb.Hook()))
	res, err := p.est.AddBatchContext(fitCtx, b.Events)
	fitD := p.clock().Sub(fitStart)
	tb.Stage("fit", fitD)
	p.reg.Histogram(MetricStageSeconds, "Per-batch pipeline stage duration in seconds.",
		nil, obs.L("stage", "fit")).Observe(fitD.Seconds())
	if err != nil {
		p.finishTrace(tb, err)
		return nil, fmt.Errorf("ingest: refit batch %d: %w", b.Seq, err)
	}
	p.finishTrace(tb, nil)

	p.applyCommitted(b)
	p.reg.Counter(MetricBatches, "Committed batches.").Inc()
	p.refreshSnapshotAge()

	pub := p.buildPublished(b.Seq, res.Converged, res.Iterations)
	return pub, nil
}

// applyCommitted advances the pipeline's committed-state counters after a
// batch is durably applied (shared by live commits and recovery replay).
func (p *Pipeline) applyCommitted(b Batch) {
	p.batchSeq = b.Seq + 1
	p.tweets += len(b.Tweets)
	if n := len(b.Tweets); n > 0 {
		p.resumeSeq = b.Tweets[n-1].Seq + 1
	}
	p.texts = append(p.texts, b.NewTexts...)
	p.lastClusterState = b.ClusterState
}

// buildPublished assembles the ranking from the estimator's latest result.
func (p *Pipeline) buildPublished(batchSeq int, converged bool, iterations int) *Published {
	st := p.est.Stats()
	pub := &Published{
		Batch:           batchSeq,
		Tweets:          p.tweets,
		Sources:         st.Sources,
		Assertions:      st.Assertions,
		Claims:          st.Claims,
		Fits:            st.Fits,
		WarmFits:        st.WarmFits,
		ColdFits:        st.ColdFits,
		Converged:       converged,
		Iterations:      iterations,
		UpdatedAtUnixNS: p.clock().UnixNano(),
	}
	if p.qual != nil {
		// ObserveRefit ran synchronously inside the refit that produced
		// this ranking, so Latest() is exactly that refit's verdict.
		pub.Quality = p.qual.Latest()
	}
	res, err := p.est.Result()
	if err != nil {
		return pub
	}
	ds, err := p.est.Dataset()
	if err != nil {
		return pub
	}
	for _, j := range res.TopK(p.opts.TopK) {
		ra := RankedAssertion{Assertion: j, Posterior: res.Posterior[j]}
		if j < len(p.texts) {
			ra.Text = p.texts[j]
		}
		ra.Claims = len(ds.Claimants(j))
		ra.Dependent = ds.DependentClaimCount(j)
		pub.Ranked = append(pub.Ranked, ra)
	}
	return pub
}

// publisher installs each ranking for the HTTP layer and the OnPublish
// observer.
func (p *Pipeline) publisher(ctx context.Context, pubCh <-chan *Published) {
	stageSec := p.reg.Histogram(MetricStageSeconds,
		"Per-batch pipeline stage duration in seconds.", nil, obs.L("stage", "publish"))
	for {
		select {
		case <-ctx.Done():
			return
		case pub, ok := <-pubCh:
			if !ok {
				return
			}
			start := p.clock()
			p.published.Store(pub)
			if p.opts.OnPublish != nil {
				p.opts.OnPublish(pub)
			}
			stageSec.Observe(p.clock().Sub(start).Seconds())
			p.log.LogAttrs(ctx, slog.LevelInfo, "published",
				slog.Int("batch", pub.Batch),
				slog.Int("tweets", pub.Tweets),
				slog.Int("assertions", pub.Assertions),
				slog.Int("iterations", pub.Iterations),
			)
		}
	}
}

// finishTrace seals a refit trace into the flight recorder and the
// TraceDir spill. The estimator stage is the only writer, so the spill
// needs no lock.
func (p *Pipeline) finishTrace(tb *trace.Builder, err error) {
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	t := tb.Finish(trace.StatusOf(err), errMsg)
	p.flight.Record(t)
	if p.opts.TraceDir != "" {
		if serr := jsonl.Append(filepath.Join(p.opts.TraceDir, trace.SpillFile), t); serr != nil {
			p.log.Error("trace spill failed", "dir", p.opts.TraceDir, "err", serr)
		}
	}
}

// refreshSnapshotAge republishes the snapshot-age gauge from the pipeline
// clock; called per committed batch and from the status endpoints.
func (p *Pipeline) refreshSnapshotAge() {
	last := p.lastSnapshotNS.Load()
	if last == 0 {
		return
	}
	age := float64(p.clock().UnixNano()-last) / float64(time.Second)
	if age < 0 {
		age = 0
	}
	p.reg.Gauge(MetricSnapshotAge, "Seconds since the last persisted snapshot.").Set(age)
}

// appendWAL logs a batch ahead of applying it: every tweet, then the commit
// marker, flushed and fsynced. After this returns, the batch survives any
// crash.
func (p *Pipeline) appendWAL(b Batch) error {
	for _, tw := range b.Tweets {
		rec := claims.LogRecord{
			Kind:      claims.RecordTweet,
			Seq:       tw.Seq,
			Source:    tw.Source,
			Time:      tw.Time,
			Text:      tw.Text,
			RetweetOf: tw.RetweetOf,
		}
		if err := p.wal.w.Append(rec); err != nil {
			return err
		}
	}
	srcSeq := p.resumeSeq - 1
	if n := len(b.Tweets); n > 0 {
		srcSeq = b.Tweets[n-1].Seq
	}
	commit := claims.LogRecord{
		Kind:      claims.RecordCommit,
		RetweetOf: -1,
		Batch:     b.Seq,
		Tweets:    p.tweets + len(b.Tweets),
		SrcSeq:    srcSeq,
	}
	if err := p.wal.w.Append(commit); err != nil {
		return err
	}
	return p.wal.Sync()
}
