package twittersim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"depsense/internal/randutil"
)

func TestPresetsMatchTableIII(t *testing.T) {
	want := []struct {
		name                                  string
		sources, assertions, claims, original int
	}{
		{"Ukraine", 5403, 3703, 7192, 4242},
		{"Kirkuk", 4816, 2795, 6188, 3079},
		{"Superbug", 7764, 2873, 9426, 5831},
		{"LA Marathon", 5174, 3537, 7148, 4332},
		{"Paris Attack", 38844, 23513, 41249, 38794},
	}
	presets := Presets()
	if len(presets) != len(want) {
		t.Fatalf("%d presets", len(presets))
	}
	for i, w := range want {
		p := presets[i]
		if p.Name != w.name || p.Sources != w.sources || p.Assertions != w.assertions ||
			p.Claims != w.claims || p.OriginalClaims != w.original {
			t.Errorf("preset %d = %+v, want %+v", i, p, w)
		}
	}
}

func TestPresetLookup(t *testing.T) {
	if _, ok := Preset("Ukraine"); !ok {
		t.Fatal("Ukraine preset missing")
	}
	if _, ok := Preset("Atlantis"); ok {
		t.Fatal("unknown preset found")
	}
}

func TestSmallScales(t *testing.T) {
	s := Small("Kirkuk", 10)
	if s.Sources != 481 || s.Claims != 618 {
		t.Fatalf("scaled: %+v", s)
	}
	if !strings.Contains(s.Name, "1/10") {
		t.Fatalf("name = %q", s.Name)
	}
	// An unknown name ("Paris Attack" is the preset) keeps its name and
	// has no volume, so Generate refuses it instead of running another
	// preset under its label.
	f := Small("Paris attack", 5)
	if f.Name != "Paris attack" {
		t.Fatalf("unknown name became %q", f.Name)
	}
	if _, err := Generate(f, randutil.New(1)); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("Generate(Small(unknown)) = %v, want ErrBadScenario", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := Small("Ukraine", 20)
	bad := []func(*Scenario){
		func(s *Scenario) { s.Sources = 0 },
		func(s *Scenario) { s.Claims = s.Assertions - 1 },
		func(s *Scenario) { s.OriginalClaims = s.Claims + 1 },
		func(s *Scenario) { s.OriginalClaims = s.Assertions - 1 },
		func(s *Scenario) { s.TrueShare = 0.9 }, // shares no longer sum to 1
		func(s *Scenario) { s.ReliabilityLow = 0.9; s.ReliabilityHigh = 0.5 },
		func(s *Scenario) { s.RumorVirality = 0 },
	}
	for i, mutate := range bad {
		s := sc
		mutate(&s)
		if _, err := Generate(s, randutil.New(1)); !errors.Is(err, ErrBadScenario) {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
}

func TestGenerateRealizedCounts(t *testing.T) {
	sc := Small("Ukraine", 4)
	w, err := Generate(sc, randutil.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sum := w.Summarize()
	within := func(got, want int, tol float64) bool {
		return math.Abs(float64(got-want)) <= tol*float64(want)
	}
	if !within(sum.TotalClaims, sc.Claims, 0.01) {
		t.Errorf("claims %d, want ≈%d", sum.TotalClaims, sc.Claims)
	}
	if !within(sum.Sources, sc.Sources, 0.15) {
		t.Errorf("sources %d, want ≈%d", sum.Sources, sc.Sources)
	}
	if !within(sum.Assertions, sc.Assertions, 0.15) {
		t.Errorf("assertions %d, want ≈%d", sum.Assertions, sc.Assertions)
	}
	if !within(sum.OriginalClaims, sc.OriginalClaims, 0.15) {
		t.Errorf("originals %d, want ≈%d", sum.OriginalClaims, sc.OriginalClaims)
	}
}

func TestStreamStructure(t *testing.T) {
	sc := Small("LA Marathon", 10)
	w, err := Generate(sc, randutil.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, tw := range w.Tweets {
		if tw.ID != i {
			t.Fatalf("tweet %d has ID %d", i, tw.ID)
		}
		if tw.Source < 0 || tw.Source >= sc.Sources {
			t.Fatalf("tweet %d source %d", i, tw.Source)
		}
		if tw.Assertion < 0 || tw.Assertion >= len(w.Kinds) {
			t.Fatalf("tweet %d assertion %d", i, tw.Assertion)
		}
		if tw.Text == "" {
			t.Fatalf("tweet %d has empty text", i)
		}
		if tw.RetweetOf >= 0 {
			orig := w.Tweets[tw.RetweetOf]
			if tw.RetweetOf >= i {
				t.Fatalf("tweet %d retweets the future (%d)", i, tw.RetweetOf)
			}
			if orig.Assertion != tw.Assertion {
				t.Fatalf("retweet %d changed assertion", i)
			}
			if orig.Source == tw.Source {
				t.Fatalf("tweet %d retweets itself", i)
			}
			if !strings.HasPrefix(tw.Text, "rt @user") {
				t.Fatalf("retweet %d text %q", i, tw.Text)
			}
			// The follow edge implied by the retweet must exist.
			found := false
			for _, anc := range w.Graph.Ancestors(tw.Source) {
				if anc == orig.Source {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("retweet %d has no follow edge", i)
			}
		}
	}
}

func TestKindsAreValid(t *testing.T) {
	sc := Small("Superbug", 10)
	w, err := Generate(sc, randutil.New(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	for _, k := range w.Kinds {
		counts[k]++
	}
	if counts[KindTrue] == 0 || counts[KindFalse] == 0 || counts[KindOpinion] == 0 {
		t.Fatalf("kind counts: %v", counts)
	}
	if counts[KindTrue] <= counts[KindFalse] {
		t.Fatalf("true (%d) should outnumber rumors (%d) at default shares",
			counts[KindTrue], counts[KindFalse])
	}
}

func TestRumorsAreMoreViral(t *testing.T) {
	sc := Small("Ukraine", 2)
	w, err := Generate(sc, randutil.New(8))
	if err != nil {
		t.Fatal(err)
	}
	retweets := map[Kind]int{}
	claims := map[Kind]int{}
	for _, tw := range w.Tweets {
		k := w.Kinds[tw.Assertion]
		claims[k]++
		if tw.RetweetOf >= 0 {
			retweets[k]++
		}
	}
	rumorShare := float64(retweets[KindFalse]) / float64(claims[KindFalse])
	trueShare := float64(retweets[KindTrue]) / float64(claims[KindTrue])
	if rumorShare <= trueShare {
		t.Fatalf("rumor retweet share %.3f should exceed true %.3f", rumorShare, trueShare)
	}
}

func TestReliabilityCorrelatesWithActivity(t *testing.T) {
	sc := Small("Kirkuk", 4)
	w, err := Generate(sc, randutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	activity := make([]int, sc.Sources)
	for _, tw := range w.Tweets {
		activity[tw.Source]++
	}
	var prolific, oneOff []float64
	for i, a := range activity {
		switch {
		case a >= 5:
			prolific = append(prolific, w.SourceReliability[i])
		case a == 1:
			oneOff = append(oneOff, w.SourceReliability[i])
		}
	}
	if len(prolific) == 0 || len(oneOff) == 0 {
		t.Skip("degenerate activity split")
	}
	if mean(prolific) <= mean(oneOff) {
		t.Fatalf("prolific reliability %.3f should exceed one-off %.3f",
			mean(prolific), mean(oneOff))
	}
}

func TestEventsMatchTweets(t *testing.T) {
	sc := Small("Ukraine", 20)
	w, err := Generate(sc, randutil.New(2))
	if err != nil {
		t.Fatal(err)
	}
	events := w.Events()
	if len(events) != len(w.Tweets) {
		t.Fatal("event count mismatch")
	}
	for i, e := range events {
		if e.Source != w.Tweets[i].Source || e.Assertion != w.Tweets[i].Assertion || e.Time != int64(i) {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindTrue.String() != "True" || KindFalse.String() != "False" ||
		KindOpinion.String() != "Opinion" || Kind(9).String() != "Kind(9)" {
		t.Fatal("Kind.String broken")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sc := Small("Ukraine", 10)
	a, err := Generate(sc, randutil.New(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sc, randutil.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tweets) != len(b.Tweets) {
		t.Fatal("different stream lengths")
	}
	for i := range a.Tweets {
		if a.Tweets[i] != b.Tweets[i] {
			t.Fatalf("tweet %d differs", i)
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func TestSybilInjection(t *testing.T) {
	sc := Small("Ukraine", 20)
	sc.Sybils = 30
	sc.SybilTargets = 5
	w, err := Generate(sc, randutil.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// Sybil ids sit above the organic source space.
	sybilTweets := 0
	boosted := map[int]bool{}
	for _, tw := range w.Tweets {
		if tw.Source >= sc.Sources {
			sybilTweets++
			if tw.RetweetOf < 0 {
				t.Fatal("sybil tweeted an original")
			}
			if w.Kinds[tw.Assertion] != KindFalse {
				t.Fatalf("sybil boosted a %v assertion", w.Kinds[tw.Assertion])
			}
			boosted[tw.Assertion] = true
			if w.SourceReliability[tw.Source] != 0 {
				t.Fatal("sybil has nonzero reliability")
			}
		}
	}
	if sybilTweets != 30*5 {
		t.Fatalf("sybil tweets = %d, want 150", sybilTweets)
	}
	if len(boosted) != 5 {
		t.Fatalf("boosted %d rumors, want 5", len(boosted))
	}
}

func TestSybilsOffByDefault(t *testing.T) {
	sc := Small("Ukraine", 20)
	w, err := Generate(sc, randutil.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range w.Tweets {
		if tw.Source >= sc.Sources {
			t.Fatal("sybil tweet without Sybils configured")
		}
	}
}
