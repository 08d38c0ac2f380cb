// Package ingest is the continuous ingestion service: a staged worker
// pipeline that turns a raw tweet stream into continuously refreshed
// credibility rankings, 24/7.
//
// The pipeline has four stages connected by bounded channels:
//
//	collector -> clusterer -> estimator -> publisher
//
// The collector pulls raw tweets from a Source; under overload it sheds raw
// tweets (counted, never silently) so the stages downstream of clustering
// are never starved by an unbounded backlog. The clusterer owns an
// incremental leader clusterer (stable assertion ids across batches) and
// cuts the stream into fixed-size batches. The estimator owns a
// stream.Estimator and a write-ahead claim log: every batch is logged and
// fsynced before it is fitted, so committed claims are never lost — the
// drop policy degrades raw input first, committed claims never. The
// publisher exposes the latest ranking through an atomic pointer and the
// HTTP layer.
//
// Determinism contract: given the same seeded firehose and batch
// boundaries, the published rankings are bit-identical to feeding the same
// batches to stream.Estimator directly, at any EM worker count; and after a
// crash, replaying the claim log on top of the latest snapshot reconverges
// to exactly the uninterrupted run's state (see DESIGN.md §12).
package ingest

import (
	"context"
	"log/slog"
	"time"

	"depsense/internal/cluster"
	"depsense/internal/depgraph"
	"depsense/internal/httpapi"
	"depsense/internal/qual"
	"depsense/internal/stream"
	"depsense/internal/twittersim"
)

// Metric names exported by the pipeline (DESIGN.md §10 has the catalog).
const (
	// MetricTweets counts raw tweets by outcome ("accepted" entered the
	// pipeline, "dropped" was shed under overload).
	MetricTweets = "depsense_ingest_tweets_total"
	// MetricQueueDepth / MetricQueueCapacity gauge the bounded inter-stage
	// queues, labeled queue="raw"/"batch".
	MetricQueueDepth    = "depsense_ingest_queue_depth"
	MetricQueueCapacity = "depsense_ingest_queue_capacity"
	// MetricBatches counts committed batches.
	MetricBatches = "depsense_ingest_batches_total"
	// MetricStageSeconds is the per-batch stage-duration histogram, labeled
	// stage="cluster"/"wal"/"fit"/"publish".
	MetricStageSeconds = "depsense_ingest_stage_duration_seconds"
	// MetricSnapshots counts persisted snapshots; MetricSnapshotAge gauges
	// seconds since the last one (refreshed per committed batch).
	MetricSnapshots   = "depsense_ingest_snapshots_total"
	MetricSnapshotAge = "depsense_ingest_snapshot_age_seconds"
	// MetricReplayedBatches counts batches recovered from the claim log on
	// start; MetricTornLog counts truncated log tails healed.
	MetricReplayedBatches = "depsense_ingest_replayed_batches_total"
	MetricTornLog         = "depsense_ingest_torn_log_total"
)

// Tweet is one raw observation entering the pipeline.
type Tweet struct {
	// Seq is the tweet's position in the source stream; the pipeline
	// persists the last committed Seq so a restart can resume the source
	// where it left off.
	Seq int
	// Source is the authoring source id.
	Source int
	// Time is the tweet's stable timestamp in Unix nanoseconds.
	Time int64
	// Text is the raw tweet text.
	Text string
	// RetweetOf is the author this tweet repeats (a follow edge
	// Source -> RetweetOf is observed), or -1 for originals.
	RetweetOf int
}

// Source is a raw tweet stream. Next blocks until a tweet is available and
// reports ok=false when the stream ends or ctx is cancelled. The pipeline
// reads from one goroutine only.
type Source interface {
	Next(ctx context.Context) (Tweet, bool)
}

// Seeker is implemented by replayable sources; the pipeline seeks to the
// first unprocessed Seq before consuming, so a warm restart does not re-read
// tweets it already committed.
type Seeker interface {
	Seek(seq int)
}

// FirehoseSource adapts a twittersim firehose to the pipeline's Source, the
// stand-in for a live tweet stream.
type FirehoseSource struct {
	world *twittersim.World
	fh    *twittersim.Firehose
}

// NewFirehoseSource wraps a firehose over its world.
func NewFirehoseSource(w *twittersim.World, fh *twittersim.Firehose) *FirehoseSource {
	return &FirehoseSource{world: w, fh: fh}
}

// Next implements Source.
func (s *FirehoseSource) Next(ctx context.Context) (Tweet, bool) {
	tt, ok := s.fh.Next(ctx)
	if !ok {
		return Tweet{}, false
	}
	return Tweet{
		Seq:       tt.ID,
		Source:    tt.Source,
		Time:      tt.Time.UnixNano(),
		Text:      tt.Text,
		RetweetOf: s.world.RetweetedSource(tt.Tweet),
	}, true
}

// Seek implements Seeker (firehose tweet ids are stream positions).
func (s *FirehoseSource) Seek(seq int) { s.fh.Seek(seq) }

// SliceSource replays a fixed tweet slice, for tests and file-fed runs.
type SliceSource struct {
	Tweets []Tweet
	next   int
}

// Next implements Source.
func (s *SliceSource) Next(ctx context.Context) (Tweet, bool) {
	if s.next >= len(s.Tweets) || ctx.Err() != nil {
		return Tweet{}, false
	}
	t := s.Tweets[s.next]
	s.next++
	return t, true
}

// Seek implements Seeker, interpreting seq as the slice position.
func (s *SliceSource) Seek(seq int) {
	if seq < 0 {
		seq = 0
	}
	if seq > len(s.Tweets) {
		seq = len(s.Tweets)
	}
	s.next = seq
}

// Batch is one unit of work cut by the clusterer and committed by the
// estimator.
type Batch struct {
	// Seq numbers committed batches from zero.
	Seq int
	// Tweets are the accepted raw tweets, in stream order.
	Tweets []Tweet
	// Events are the claim events (assertion = stable cluster id).
	Events []depgraph.Event
	// Follows are the [follower, followee] edges observed via retweets.
	Follows [][2]int
	// NewTexts are the representative texts of clusters founded by this
	// batch, in founding order; the estimator appends them to its
	// assertion-text table.
	NewTexts []string
	// ClusterState is the clusterer's state at this batch boundary. It is
	// built for every batch, since any commit can be the last before a
	// graceful-shutdown snapshot, so it shares the leader token slices
	// with the clusterer instead of copying them.
	ClusterState *cluster.IncrementalState
}

// RankedAssertion is one entry of a published ranking.
type RankedAssertion struct {
	// Assertion is the stable cluster id.
	Assertion int `json:"assertion"`
	// Posterior is the estimated probability the assertion is true.
	Posterior float64 `json:"posterior"`
	// Text is the founding tweet's text, the assertion's representative.
	Text string `json:"text"`
	// Claims counts sources asserting it; Dependent how many of those were
	// flagged as dependent repeats.
	Claims    int `json:"claims"`
	Dependent int `json:"dependent"`
}

// Published is the pipeline's output after each committed batch.
type Published struct {
	// Batch is the seq of the batch this ranking reflects; Tweets the
	// cumulative accepted tweets through it.
	Batch  int `json:"batch"`
	Tweets int `json:"tweets"`
	// Stream statistics at publish time.
	Sources    int `json:"sources"`
	Assertions int `json:"assertions"`
	Claims     int `json:"claims"`
	Fits       int `json:"fits"`
	WarmFits   int `json:"warmFits"`
	ColdFits   int `json:"coldFits"`
	// Converged / Iterations describe the refit behind this ranking.
	Converged  bool `json:"converged"`
	Iterations int  `json:"iterations"`
	// Ranked is the top-K ranking, most credible first.
	Ranked []RankedAssertion `json:"ranked"`
	// Quality is the estimation-quality verdict for the refit behind this
	// ranking (nil when quality monitoring is disabled).
	Quality *qual.Verdict `json:"quality,omitempty"`
	// UpdatedAtUnixNS is the publish timestamp (pipeline clock). It is
	// operational metadata, not part of the determinism contract.
	UpdatedAtUnixNS int64 `json:"updatedAtUnixNS"`
}

// Options configures the pipeline.
type Options struct {
	// Stream configures the estimator stage (EM options).
	// Its Metrics and Clock are overridden by the pipeline's.
	Stream stream.Options
	// BatchSize is the number of accepted tweets per batch (default 64).
	BatchSize int
	// DisableShedding makes the collector block instead of dropping when
	// the raw queue (rawQueue slots) is full — lossless mode for replays
	// and tests. By default a full raw queue sheds tweets, counted.
	DisableShedding bool
	// TopK bounds the published ranking (default 100).
	TopK int
	// Dir is the persistence directory (claim log + snapshots); empty
	// disables persistence and warm restarts.
	Dir string
	// SnapshotEvery writes a snapshot after every n-th committed batch
	// (default 16). The final state on graceful shutdown is always
	// snapshotted.
	SnapshotEvery int
	// Clock supplies timestamps (injected per the clocked-zone contract);
	// nil means the wall clock.
	Clock func() time.Time
	// Logger receives operational logs; nil discards.
	Logger *slog.Logger
	// TraceBuffer sizes the per-refit flight recorder (default
	// trace.DefaultCompleted); failed and alarm traces get a ring of their
	// own, a quarter of it and at least trace.DefaultFailed.
	TraceBuffer int
	// TraceDir, when set, appends every refit trace to
	// TraceDir/traces.jsonl.
	TraceDir string
	// Quality, when set, attaches an estimation-quality monitor
	// (internal/qual) to the estimator stage: every refit produces a
	// verdict published alongside the ranking, surfaced on /statusz and
	// /debug/quality, with alarm windows snapshotted into the flight
	// recorder. The monitor's Metrics, Clock, and Flight are overridden by
	// the pipeline's; its SpillDir defaults to TraceDir, so verdicts land
	// in TraceDir/quality.jsonl next to the refit traces for cmd/ssaudit.
	// Verdict ticks are per-process: a warm restart replays committed
	// batches through the monitor from tick zero.
	Quality *qual.Options
	// OnPublish, when set, is called synchronously with each published
	// ranking (tests use it to observe batch boundaries).
	OnPublish func(*Published)
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.TopK <= 0 {
		opts.TopK = 100
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 16
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = httpapi.DiscardLogger()
	}
	return opts
}
