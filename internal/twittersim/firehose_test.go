package twittersim

import (
	"context"
	"testing"
	"time"

	"depsense/internal/randutil"
)

func firehoseWorld(t *testing.T) *World {
	t.Helper()
	w, err := Generate(Small("Ukraine", 20), randutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tweets) == 0 {
		t.Fatal("generated world has no tweets")
	}
	return w
}

// TestFirehoseEmitsAllTweetsInOrder: an unpaced firehose replays the whole
// stream in id order with stable epoch-anchored timestamps.
func TestFirehoseEmitsAllTweetsInOrder(t *testing.T) {
	w := firehoseWorld(t)
	fh := w.Firehose(FirehoseOptions{Interval: time.Second})
	ctx := context.Background()
	n := 0
	for {
		tt, ok := fh.Next(ctx)
		if !ok {
			break
		}
		if tt.ID != w.Tweets[n].ID || tt.Text != w.Tweets[n].Text {
			t.Fatalf("emission %d: got tweet %d, want %d", n, tt.ID, w.Tweets[n].ID)
		}
		want := time.Unix(0, 0).UTC().Add(time.Duration(tt.ID) * time.Second)
		if !tt.Time.Equal(want) {
			t.Fatalf("tweet %d stamped %v, want %v", tt.ID, tt.Time, want)
		}
		n++
	}
	if n != len(w.Tweets) {
		t.Fatalf("emitted %d tweets, want %d", n, len(w.Tweets))
	}
}

// TestFirehoseStampsStableAcrossResume: a firehose resumed by Seek — a new
// one, as after a restart, or the same one re-seeked — stamps every tweet
// identically to the uninterrupted run: the timestamp is a function of the
// tweet id, not of when emission happens.
func TestFirehoseStampsStableAcrossResume(t *testing.T) {
	w := firehoseWorld(t)
	ctx := context.Background()
	opts := FirehoseOptions{Interval: 250 * time.Millisecond}

	full := w.Firehose(opts)
	var want []TimedTweet
	for {
		tt, ok := full.Next(ctx)
		if !ok {
			break
		}
		want = append(want, tt)
	}

	cut := len(want) / 2
	resumed := w.Firehose(opts)
	resumed.Seek(cut)
	for i := cut; ; i++ {
		tt, ok := resumed.Next(ctx)
		if !ok {
			if i != len(want) {
				t.Fatalf("resumed firehose ended at %d, want %d", i, len(want))
			}
			break
		}
		if tt.ID != want[i].ID || !tt.Time.Equal(want[i].Time) {
			t.Fatalf("resumed emission %d: (%d, %v), want (%d, %v)",
				i, tt.ID, tt.Time, want[i].ID, want[i].Time)
		}
	}

	// Seek repositions an existing firehose the same way.
	full.Seek(cut)
	tt, ok := full.Next(ctx)
	if !ok || tt.ID != want[cut].ID || !tt.Time.Equal(want[cut].Time) {
		t.Fatalf("after Seek(%d): got (%d, %v, ok=%v), want (%d, %v)",
			cut, tt.ID, tt.Time, ok, want[cut].ID, want[cut].Time)
	}
}

// TestFirehosePacesOnInjectedClock: with Pace set, each emission waits until
// its due instant on the injected clock; the fake sleeper advances the fake
// clock, so the requested waits are exactly the configured cadence.
func TestFirehosePacesOnInjectedClock(t *testing.T) {
	w := firehoseWorld(t)
	now := time.Unix(5000, 0)
	var waits []time.Duration
	opts := FirehoseOptions{
		Interval: 10 * time.Millisecond,
		Pace:     true,
		Clock:    func() time.Time { return now },
		Sleep: func(d time.Duration) {
			waits = append(waits, d)
			now = now.Add(d)
		},
	}
	fh := w.Firehose(opts)
	ctx := context.Background()
	const emit = 5
	for i := 0; i < emit; i++ {
		if _, ok := fh.Next(ctx); !ok {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	// The first tweet is due immediately at the creation instant; each of
	// the remaining emissions sleeps one full interval.
	if len(waits) != emit-1 {
		t.Fatalf("slept %d times, want %d", len(waits), emit-1)
	}
	for i, d := range waits {
		if d != 10*time.Millisecond {
			t.Fatalf("wait %d = %v, want 10ms", i, d)
		}
	}
	// A slow consumer that falls behind does not sleep at all.
	now = now.Add(time.Hour)
	before := len(waits)
	if _, ok := fh.Next(ctx); !ok {
		t.Fatal("stream ended early")
	}
	if len(waits) != before {
		t.Fatal("firehose slept while behind schedule")
	}
}

// TestFirehosePacingRestartsAtSeek: a restarted, paced service seeks to its
// resume position; the first tweet after the Seek is due at once, not
// resume·Interval after the firehose was created, and each later tweet
// waits one interval.
func TestFirehosePacingRestartsAtSeek(t *testing.T) {
	w := firehoseWorld(t)
	now := time.Unix(5000, 0)
	var waits []time.Duration
	fh := w.Firehose(FirehoseOptions{
		Interval: 10 * time.Millisecond,
		Pace:     true,
		Clock:    func() time.Time { return now },
		Sleep: func(d time.Duration) {
			waits = append(waits, d)
			now = now.Add(d)
		},
	})
	const resume = 179
	if len(w.Tweets) < resume+4 {
		t.Fatalf("world has %d tweets, want more than %d", len(w.Tweets), resume+3)
	}
	fh.Seek(resume)
	ctx := context.Background()
	tt, ok := fh.Next(ctx)
	if !ok || tt.ID != w.Tweets[resume].ID {
		t.Fatalf("first tweet after Seek(%d): id %d, ok=%v; want id %d", resume, tt.ID, ok, w.Tweets[resume].ID)
	}
	if len(waits) != 0 {
		t.Fatalf("first tweet after Seek(%d) slept %v, want no wait", resume, waits)
	}
	for i := 0; i < 3; i++ {
		if _, ok := fh.Next(ctx); !ok {
			t.Fatalf("stream ended early at %d", resume+1+i)
		}
	}
	if len(waits) != 3 {
		t.Fatalf("slept %d times over 3 later tweets, want 3: %v", len(waits), waits)
	}
	for i, d := range waits {
		if d != 10*time.Millisecond {
			t.Fatalf("wait %d after Seek = %v, want 10ms", i, d)
		}
	}
}

// TestFirehoseStopsOnCancel: cancellation ends the stream both before and
// during a paced wait.
func TestFirehoseStopsOnCancel(t *testing.T) {
	w := firehoseWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fh := w.Firehose(FirehoseOptions{})
	if _, ok := fh.Next(ctx); ok {
		t.Fatal("Next succeeded on cancelled context")
	}

	// Cancelled mid-sleep: the injected sleeper cancels, and Next reports
	// the stream closed instead of emitting.
	ctx2, cancel2 := context.WithCancel(context.Background())
	now := time.Unix(0, 0)
	fh2 := w.Firehose(FirehoseOptions{
		Pace:  true,
		Clock: func() time.Time { return now },
		Sleep: func(d time.Duration) { cancel2() },
	})
	if _, ok := fh2.Next(ctx2); !ok {
		t.Fatal("first tweet should emit without sleeping")
	}
	if _, ok := fh2.Next(ctx2); ok {
		t.Fatal("Next succeeded after cancellation during paced wait")
	}
}

// TestRetweetedSource resolves retweets to the original author.
func TestRetweetedSource(t *testing.T) {
	w := firehoseWorld(t)
	sawRetweet := false
	for _, tw := range w.Tweets {
		got := w.RetweetedSource(tw)
		if tw.RetweetOf < 0 {
			if got != -1 {
				t.Fatalf("original tweet %d resolved to source %d", tw.ID, got)
			}
			continue
		}
		sawRetweet = true
		if want := w.Tweets[tw.RetweetOf].Source; got != want {
			t.Fatalf("tweet %d retweets %d: source %d, want %d", tw.ID, tw.RetweetOf, got, want)
		}
	}
	if !sawRetweet {
		t.Skip("scenario generated no retweets")
	}
}
