package twittersim

import (
	"context"
	"time"
)

// TimedTweet is one firehose emission: a tweet plus its stable stream
// timestamp. The timestamp is a deterministic function of the tweet's ID
// and the firehose's interval — never of the wall clock at emission — so the
// same world always yields the same timestamps, across runs and across
// restarts resuming mid-stream.
type TimedTweet struct {
	Tweet
	// Time is the tweet's timestamp: the Unix epoch + ID·Interval.
	Time time.Time
}

// FirehoseOptions configures a World's firehose replay.
type FirehoseOptions struct {
	// Interval is the per-tweet spacing, used both for the stable
	// timestamps (the Unix epoch + ID·Interval) and, when Pace is set, for
	// the emission cadence. Zero selects one millisecond.
	Interval time.Duration
	// Pace throttles emission to the interval cadence, making the firehose
	// stand in for a live stream; unset replays as fast as the consumer
	// drains. Pacing is measured on Clock from the firehose's creation, or
	// its last Seek: the first tweet after either is due at once, each
	// later one an Interval after the one before. It is independent of the
	// stamped timestamps.
	Pace bool
	// Clock supplies the pacing clock; nil means the wall clock. Injected
	// so paced emission is testable with a fake clock under the
	// clocked-zone lint contract.
	Clock func() time.Time
	// Sleep waits out pacing gaps; nil selects a context-aware real sleep.
	// Tests inject a fake that advances their fake clock.
	Sleep func(time.Duration)
}

// Firehose replays a World's tweet stream one tweet at a time, stamping
// each with its stable timestamp and optionally pacing emission on an
// injected clock. It is the ingestion pipeline's stand-in for a live
// tweet stream; it is not safe for concurrent use.
type Firehose struct {
	world *World
	opts  FirehoseOptions
	// anchor is the Clock instant at which tweet anchorID was due: the
	// creation instant with tweet 0, re-set by every Seek.
	anchor   time.Time
	anchorID int
	next     int
}

// Firehose starts a replay of the world's stream.
func (w *World) Firehose(opts FirehoseOptions) *Firehose {
	if opts.Interval <= 0 {
		opts.Interval = time.Millisecond
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	opts.Clock = clock
	return &Firehose{world: w, opts: opts, anchor: clock()}
}

// TweetTime returns the stable timestamp of tweet id: the Unix epoch plus
// id firehose intervals.
func (f *Firehose) TweetTime(id int) time.Time {
	return time.Unix(0, 0).UTC().Add(time.Duration(id) * f.opts.Interval)
}

// Seek repositions the firehose so the next emission is tweet id (clamped
// to the stream bounds); a restarted service seeks to its replayed
// position before resuming. Pacing restarts from the seek: tweet id is due
// at once.
func (f *Firehose) Seek(id int) {
	if id < 0 {
		id = 0
	}
	if id > len(f.world.Tweets) {
		id = len(f.world.Tweets)
	}
	f.next = id
	f.anchor, f.anchorID = f.opts.Clock(), id
}

// Next emits the next tweet, sleeping out the pacing gap first when Pace
// is set. ok is false when the stream is exhausted or ctx is cancelled.
func (f *Firehose) Next(ctx context.Context) (TimedTweet, bool) {
	if f.next >= len(f.world.Tweets) || ctx.Err() != nil {
		return TimedTweet{}, false
	}
	if f.opts.Pace {
		due := f.anchor.Add(time.Duration(f.next-f.anchorID) * f.opts.Interval)
		if wait := due.Sub(f.opts.Clock()); wait > 0 {
			if !f.sleep(ctx, wait) {
				return TimedTweet{}, false
			}
		}
	}
	t := f.world.Tweets[f.next]
	f.next++
	return TimedTweet{Tweet: t, Time: f.TweetTime(t.ID)}, true
}

// sleep waits d on the injected sleeper, or on a context-aware timer when
// none is injected; it reports false when ctx ended the wait early.
func (f *Firehose) sleep(ctx context.Context, d time.Duration) bool {
	if f.opts.Sleep != nil {
		f.opts.Sleep(d)
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// RetweetedSource resolves the author a tweet repeats: the source of the
// retweeted tweet, or -1 for originals. The ingestion pipeline derives
// follow edges from this (retweeting manifests "follower sees followee").
func (w *World) RetweetedSource(t Tweet) int {
	if t.RetweetOf < 0 || t.RetweetOf >= len(w.Tweets) {
		return -1
	}
	return w.Tweets[t.RetweetOf].Source
}
