package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/stream"
)

// Persistence layout inside Options.Dir:
//
//	claims.log    — append-only JSONL write-ahead log (claims codec):
//	                tweet records followed by a commit marker per batch.
//	                Synced before a batch is applied, so every applied
//	                batch is durable.
//	snapshot.json — periodic full-state snapshot: estimator, clusterer,
//	                assertion texts, counters. Written atomically
//	                (tmp + rename).
//
// Restart recovery: load the snapshot, then re-derive every batch the log
// committed after it by replaying the logged tweets through the same
// clustering/fit path as live ingestion. Records after the last commit
// marker (including a torn final line) never took effect and are dropped —
// the log is rewritten without them.
const (
	logFile      = "claims.log"
	snapshotFile = "snapshot.json"
)

// snapshotVersion guards the persisted-state schema.
const snapshotVersion = 1

// persistedState is the snapshot.json schema.
type persistedState struct {
	Version int `json:"version"`
	// Batches is the number of committed batches the snapshot includes;
	// Tweets the cumulative accepted tweets; ResumeSeq the first source
	// seq not yet committed.
	Batches   int `json:"batches"`
	Tweets    int `json:"tweets"`
	ResumeSeq int `json:"resumeSeq"`
	// Texts is the representative text per assertion id.
	Texts   []string                  `json:"texts"`
	Cluster *cluster.IncrementalState `json:"cluster"`
	Stream  *stream.Snapshot          `json:"stream"`
}

// walFile is the open claim log plus its writer.
type walFile struct {
	f *os.File
	w *claims.LogWriter
}

func openWAL(path string) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walFile{f: f, w: claims.NewLogWriter(f)}, nil
}

// Sync flushes buffered records and forces them to stable storage.
func (w *walFile) Sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *walFile) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// writeSnapshot persists the full pipeline state atomically. Must only run
// from the estimator stage (or single-threaded recovery), which owns every
// piece of state it captures.
func (p *Pipeline) writeSnapshot() error {
	st := persistedState{
		Version:   snapshotVersion,
		Batches:   p.batchSeq,
		Tweets:    p.tweets,
		ResumeSeq: p.resumeSeq,
		Texts:     p.texts,
		Cluster:   p.lastClusterState,
		Stream:    p.est.Snapshot(),
	}
	data, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("ingest: marshal snapshot: %w", err)
	}
	path := filepath.Join(p.opts.Dir, snapshotFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: snapshot: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("ingest: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ingest: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ingest: snapshot rename: %w", err)
	}
	p.reg.Counter(MetricSnapshots, "Persisted snapshots.").Inc()
	p.lastSnapshotNS.Store(p.clock().UnixNano())
	p.refreshSnapshotAge()
	p.log.Info("snapshot written", "batches", st.Batches, "tweets", st.Tweets)
	return nil
}

// checkEnvelope refuses a snapshot whose parts disagree, which no run
// writes. Assertion ids are cluster ids, one text per cluster, so a short
// Texts would publish empty texts and put every later batch's texts on the
// wrong ids; the estimator learns an assertion id only from a clustered
// tweet, so it cannot know more assertions than there are clusters.
func checkEnvelope(st *persistedState, clusters, assertions int) error {
	if st.Batches < 0 || st.Tweets < 0 || st.ResumeSeq < 0 {
		return fmt.Errorf("ingest: snapshot has negative counters (%d batches, %d tweets, resume seq %d)",
			st.Batches, st.Tweets, st.ResumeSeq)
	}
	if len(st.Texts) != clusters {
		return fmt.Errorf("ingest: snapshot has %d texts for %d clusters", len(st.Texts), clusters)
	}
	if assertions > clusters {
		return fmt.Errorf("ingest: snapshot estimator has %d assertions but the clusterer %d clusters",
			assertions, clusters)
	}
	return nil
}

// loggedBatch is one committed batch reconstructed from the claim log.
type loggedBatch struct {
	seq    int
	tweets []Tweet
	srcSeq int
}

// groupLog splits log records into committed batches plus the uncommitted
// orphan tail (records after the last commit marker).
func groupLog(recs []claims.LogRecord) (batches []loggedBatch, orphans int, err error) {
	var pending []Tweet
	for _, rec := range recs {
		switch rec.Kind {
		case claims.RecordTweet:
			pending = append(pending, Tweet{
				Seq:       rec.Seq,
				Source:    rec.Source,
				Time:      rec.Time,
				Text:      rec.Text,
				RetweetOf: rec.RetweetOf,
			})
		case claims.RecordCommit:
			if len(batches) > 0 && rec.Batch != batches[len(batches)-1].seq+1 {
				return nil, 0, fmt.Errorf("ingest: claim log commits batch %d after batch %d",
					rec.Batch, batches[len(batches)-1].seq)
			}
			batches = append(batches, loggedBatch{seq: rec.Batch, tweets: pending, srcSeq: rec.SrcSeq})
			pending = nil
		}
	}
	return batches, len(pending), nil
}

// recover rebuilds pipeline state from Options.Dir: snapshot first, then
// every batch the log committed after it, replayed through the identical
// derive/fit path as live ingestion. It finishes by rewriting the log when
// a torn tail or orphan records are found, and leaves the WAL open for
// appending.
func (p *Pipeline) recover(ctx context.Context, streamOpts stream.Options) error {
	if err := os.MkdirAll(p.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("ingest: data dir: %w", err)
	}

	snapPath := filepath.Join(p.opts.Dir, snapshotFile)
	data, err := os.ReadFile(snapPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Cold start (or crash before the first snapshot): the log alone
		// carries the state.
	case err != nil:
		return fmt.Errorf("ingest: read snapshot: %w", err)
	default:
		var st persistedState
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("ingest: decode snapshot: %w", err)
		}
		if st.Version != snapshotVersion {
			return fmt.Errorf("ingest: snapshot version %d, want %d", st.Version, snapshotVersion)
		}
		inc, err := cluster.RestoreIncremental(st.Cluster)
		if err != nil {
			return fmt.Errorf("ingest: restore clusterer: %w", err)
		}
		est, err := stream.Restore(st.Stream, streamOpts)
		if err != nil {
			return fmt.Errorf("ingest: restore estimator: %w", err)
		}
		if err := checkEnvelope(&st, inc.NumClusters(), est.Stats().Assertions); err != nil {
			return err
		}
		p.inc = inc
		p.est = est
		p.texts = st.Texts
		p.batchSeq = st.Batches
		p.tweets = st.Tweets
		p.resumeSeq = st.ResumeSeq
		p.lastClusterState = st.Cluster
	}

	logPath := filepath.Join(p.opts.Dir, logFile)
	var recs []claims.LogRecord
	var torn *claims.TornTail
	lf, err := os.Open(logPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return fmt.Errorf("ingest: open claim log: %w", err)
	default:
		recs, torn, err = claims.ReadLog(lf)
		lf.Close()
		if err != nil {
			return fmt.Errorf("ingest: replay claim log: %w", err)
		}
	}
	if torn != nil {
		p.reg.Counter(MetricTornLog, "Truncated claim-log tails healed on recovery.").Inc()
		p.log.Warn("claim log has torn tail, healing", "line", torn.Line, "bytes", torn.Bytes)
	}

	batches, orphans, err := groupLog(recs)
	if err != nil {
		return err
	}
	if orphans > 0 {
		p.log.Warn("discarding uncommitted claim-log tail", "tweets", orphans)
	}

	replayed := 0
	for _, lb := range batches {
		if lb.seq < p.batchSeq {
			continue // already inside the snapshot
		}
		if lb.seq > p.batchSeq {
			return fmt.Errorf("ingest: claim log jumps to batch %d with %d batches recovered", lb.seq, p.batchSeq)
		}
		b := p.deriveBatch(lb.seq, lb.tweets)
		for _, f := range b.Follows {
			if err := p.est.ObserveFollow(f[0], f[1]); err != nil {
				return fmt.Errorf("ingest: replay follow %v in batch %d: %w", f, b.Seq, err)
			}
		}
		if _, err := p.est.AddBatchContext(ctx, b.Events); err != nil {
			return fmt.Errorf("ingest: replay batch %d: %w", b.Seq, err)
		}
		p.applyCommitted(b)
		if lb.srcSeq >= 0 {
			p.resumeSeq = lb.srcSeq + 1
		}
		replayed++
	}
	if replayed > 0 {
		p.reg.Counter(MetricReplayedBatches, "Batches recovered from the claim log on start.").Add(float64(replayed))
		p.log.Info("replayed claim log", "batches", replayed, "tweets", p.tweets)
		// Serve the recovered ranking immediately; the refit behind it
		// already ran during replay.
		pub := p.buildPublished(p.batchSeq-1, true, 0)
		res, err := p.est.Result()
		if err == nil {
			pub.Converged = res.Converged
			pub.Iterations = res.Iterations
		}
		p.published.Store(pub)
	}

	if torn != nil || orphans > 0 {
		if err := p.rewriteLog(logPath, batches); err != nil {
			return err
		}
	}
	wal, err := openWAL(logPath)
	if err != nil {
		return fmt.Errorf("ingest: open write-ahead log: %w", err)
	}
	p.wal = wal
	return nil
}

// rewriteLog replaces the claim log with exactly the committed batches,
// dropping torn or orphan trailing records (tmp + rename, so a crash during
// healing leaves either the old or the new log, never a mix).
func (p *Pipeline) rewriteLog(path string, batches []loggedBatch) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: rewrite claim log: %w", err)
	}
	lw := claims.NewLogWriter(f)
	cum := 0
	for _, lb := range batches {
		for _, tw := range lb.tweets {
			rec := claims.LogRecord{
				Kind:      claims.RecordTweet,
				Seq:       tw.Seq,
				Source:    tw.Source,
				Time:      tw.Time,
				Text:      tw.Text,
				RetweetOf: tw.RetweetOf,
			}
			if err := lw.Append(rec); err != nil {
				f.Close()
				return fmt.Errorf("ingest: rewrite claim log: %w", err)
			}
		}
		cum += len(lb.tweets)
		commit := claims.LogRecord{
			Kind:      claims.RecordCommit,
			RetweetOf: -1,
			Batch:     lb.seq,
			Tweets:    cum,
			SrcSeq:    lb.srcSeq,
		}
		if err := lw.Append(commit); err != nil {
			f.Close()
			return fmt.Errorf("ingest: rewrite claim log: %w", err)
		}
	}
	if err := lw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: rewrite claim log: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: rewrite claim log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ingest: rewrite claim log: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ingest: rewrite claim log: %w", err)
	}
	p.log.Info("claim log rewritten", "batches", len(batches))
	return nil
}
