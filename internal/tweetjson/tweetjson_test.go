package tweetjson

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
)

const fixtureJSONL = `
{"id_str":"1001","text":"explosion reported near bridge7 #demo","created_at":"Sat Mar 14 10:00:00 +0000 2015","user":{"id_str":"42","screen_name":"alice"}}
{"id_str":"1002","text":"RT @alice: explosion reported near bridge7 #demo","created_at":"Sat Mar 14 10:05:00 +0000 2015","user":{"id_str":"77","screen_name":"bob"},"retweeted_status":{"id_str":"1001","text":"explosion reported near bridge7 #demo","user":{"id_str":"42","screen_name":"alice"}}}

{"id_str":"1003","full_text":"officials deny outage near campus2 #demo","timestamp_ms":"1426327500000","user":{"id_str":"9","screen_name":"carol"}}
`

func TestParseJSONL(t *testing.T) {
	tweets, err := Parse(strings.NewReader(fixtureJSONL))
	if err != nil {
		t.Fatal(err)
	}
	if len(tweets) != 3 {
		t.Fatalf("%d tweets", len(tweets))
	}
	if tweets[1].RetweetedStatus == nil || tweets[1].RetweetedStatus.User.ScreenName != "alice" {
		t.Fatal("retweeted_status lost")
	}
	if tweets[2].Body() != "officials deny outage near campus2 #demo" {
		t.Fatalf("full_text not preferred: %q", tweets[2].Body())
	}
}

func TestParseArray(t *testing.T) {
	arr := `[{"id_str":"1","text":"a","user":{"id_str":"5"}},{"id_str":"2","text":"b","user":{"id_str":"6"}}]`
	tweets, err := Parse(strings.NewReader(arr))
	if err != nil {
		t.Fatal(err)
	}
	if len(tweets) != 2 {
		t.Fatalf("%d tweets", len(tweets))
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("")); !errors.Is(err, ErrEmptyArchive) {
		t.Fatalf("want ErrEmptyArchive, got %v", err)
	}
	if _, err := Parse(strings.NewReader("{broken\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := Parse(strings.NewReader("[{]")); err == nil {
		t.Fatal("malformed array accepted")
	}
}

func TestTimeResolution(t *testing.T) {
	// created_at format.
	tw := Tweet{CreatedAt: "Sat Mar 14 10:00:00 +0000 2015"}
	want := time.Date(2015, 3, 14, 10, 0, 0, 0, time.UTC)
	if !tw.Time().Equal(want) {
		t.Fatalf("created_at time = %v", tw.Time())
	}
	// timestamp_ms wins over created_at.
	tw.TimestampMS = "1426327500000"
	if tw.Time().UnixMilli() != 1426327500000 {
		t.Fatalf("timestamp_ms time = %v", tw.Time())
	}
	// Snowflake fallback: id 576813921862553600 is ~2015-03-14T18:20Z.
	snow := Tweet{IDStr: "576813921862553600"}
	got := snow.Time()
	if got.Year() != 2015 || got.Month() != time.March {
		t.Fatalf("snowflake time = %v", got)
	}
	// Nothing available.
	if !(&Tweet{}).Time().IsZero() {
		t.Fatal("zero tweet has non-zero time")
	}
}

func TestToPipeline(t *testing.T) {
	tweets, err := Parse(strings.NewReader(fixtureJSONL))
	if err != nil {
		t.Fatal(err)
	}
	in, mapping, err := ToPipeline(tweets)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumSources != 3 || len(in.Messages) != 3 {
		t.Fatalf("sources=%d messages=%d", in.NumSources, len(in.Messages))
	}
	// Messages must be chronological.
	for i := 1; i < len(in.Messages); i++ {
		if in.Messages[i].Time < in.Messages[i-1].Time {
			t.Fatal("messages not chronological")
		}
	}
	// The retweet edge bob -> alice must exist.
	bob, alice := -1, -1
	for i, name := range mapping.ScreenNames {
		switch name {
		case "bob":
			bob = i
		case "alice":
			alice = i
		}
	}
	if bob < 0 || alice < 0 {
		t.Fatalf("mapping: %v", mapping.ScreenNames)
	}
	found := false
	for _, anc := range in.Graph.Ancestors(bob) {
		if anc == alice {
			found = true
		}
	}
	if !found {
		t.Fatal("retweet edge missing")
	}
	if len(mapping.TweetIDs) != 3 || mapping.TweetIDs[0] != "1001" {
		t.Fatalf("tweet ids: %v", mapping.TweetIDs)
	}
}

func TestToPipelineRunsEndToEnd(t *testing.T) {
	tweets, err := Parse(strings.NewReader(fixtureJSONL))
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := ToPipeline(tweets)
	if err != nil {
		t.Fatal(err)
	}
	out, err := apollo.Run(in, &baselines.Voting{}, apollo.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The retweet must cluster with its original and be dependent.
	c := out.MessageAssertion[0]
	if out.MessageAssertion[1] != c {
		t.Fatal("retweet clustered apart from original")
	}
	if out.Dataset.NumDependentClaims() != 1 {
		t.Fatalf("dependent claims = %d", out.Dataset.NumDependentClaims())
	}
}

func TestToPipelineRejectsAnonymousTweets(t *testing.T) {
	if _, _, err := ToPipeline([]Tweet{{IDStr: "1", Text: "x"}}); !errors.Is(err, ErrNoAuthor) {
		t.Fatalf("want ErrNoAuthor, got %v", err)
	}
}

// FuzzParse feeds arbitrary bytes to the archive decoder: it must never
// panic, a nil error must come with at least one tweet, and the accessors
// must cope with whatever the decoder accepted.
func FuzzParse(f *testing.F) {
	f.Add([]byte(fixtureJSONL))
	f.Add([]byte(`[{"id_str":"1","text":"a","user":{"id_str":"5"}},{"id_str":"2","text":"b","user":{"id_str":"6"}}]`))
	f.Add([]byte(""))
	f.Add([]byte("{broken\n"))
	f.Add([]byte("[{]"))
	f.Add([]byte("[null]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tweets, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(tweets) == 0 {
			t.Fatal("nil error with no tweets")
		}
		for i := range tweets {
			_ = tweets[i].Time()
			_ = tweets[i].Body()
		}
	})
}
