// Package twittersim is the repository's substitute for the paper's five
// 2015 Twitter datasets (Table III), which are no longer publicly
// available. It simulates a topic-focused tweet stream end to end: a pool
// of sources with heterogeneous reliability and activity, factual
// assertions (true and false) plus opinion chaff, original reporting,
// rumor-biased retweet cascades, and per-tweet text built from a scenario
// vocabulary so that assertion extraction (clustering) remains a real,
// imperfect step exactly as in the Apollo tool.
//
// The five presets are scaled to the paper's Table III: the number of
// sources, assertions, total claims, and original claims land within a few
// percent of the reported values. The behavioural structure preserves what
// the empirical evaluation actually exercises: correlated errors flow along
// observable retweet edges, so dependency-aware estimation pays off, while
// raw popularity (Voting) is inflated by viral rumors and opinions.
package twittersim

import "strconv"

// Scenario parameterizes one simulated dataset.
type Scenario struct {
	// Name of the event, e.g. "Ukraine".
	Name string
	// Sources is the target number of distinct sources.
	Sources int
	// Assertions is the target number of distinct factual+opinion
	// assertions.
	Assertions int
	// Claims is the target total number of claims (tweets before
	// per-source deduplication).
	Claims int
	// OriginalClaims is the target number of original (non-retweet) tweets.
	OriginalClaims int

	// TrueShare, FalseShare and OpinionShare partition the assertion space;
	// they must sum to 1.
	TrueShare    float64
	FalseShare   float64
	OpinionShare float64

	// RumorVirality multiplies a false assertion's chance of being picked
	// as a retweet target; OpinionVirality does the same for opinions.
	// Values above 1 make misinformation cascade, the phenomenon the
	// paper's dependency model is built to discount.
	RumorVirality   float64
	OpinionVirality float64

	// TrueReassert multiplies a true assertion's chance of being picked for
	// independent re-reporting (multiple witnesses of a real event);
	// FalseReassert is the rumor counterpart (usually < 1: few independent
	// fabrications of the same falsehood).
	TrueReassert  float64
	FalseReassert float64

	// ActivitySkew is the Zipf exponent of per-source activity; higher
	// concentrates tweeting in a few prolific accounts.
	ActivitySkew float64
	// ReliabilityLow/High bound each source's probability of originating a
	// true assertion rather than a false one when reporting facts.
	ReliabilityLow, ReliabilityHigh float64
	// OpinionRate is the probability an original tweet voices an opinion
	// instead of reporting a fact.
	OpinionRate float64

	// Vocabulary sizing for tweet text generation.
	Entities int
	Places   int

	// Sybils adds that many coordinated bot accounts on top of Sources.
	// Each sybil retweets the first tweet of SybilTargets rumors, the
	// classic amplification attack: popularity-driven fact-finders inflate
	// the boosted rumors while dependency-aware estimators see the support
	// is correlated. Zero disables the attack.
	Sybils int
	// SybilTargets is the number of rumors the bot network boosts
	// (default 10 when Sybils > 0).
	SybilTargets int

	// FlipAtClaim, when > 0, injects mid-stream reliability drift: once the
	// stream reaches that many claims, the FlipSources earliest-activated
	// (most prolific) sources turn fabrication mill — every original tweet
	// they post coins a fresh assertion that is true only with probability
	// FlipReliability, a unique lie with no independent co-claimants — a
	// compromised news desk, the regime change the drift detectors
	// (internal/qual) are built to catch. Fabrications bypass the Assertions
	// budget, so a flipped world carries more distinct assertions than its
	// unflipped twin. The flipped stream is deterministic given the seed and
	// identical to the unflipped one before the flip point.
	// World.FlippedSources lists the flipped source ids. Zero disables the
	// injection.
	FlipAtClaim int
	// FlipSources is the number of sources flipped (default 1 when
	// FlipAtClaim > 0).
	FlipSources int
	// FlipReliability is the flipped sources' post-flip probability of
	// originating truth, in [0, 1].
	FlipReliability float64
}

// Presets returns the five scenarios scaled to Table III of the paper.
func Presets() []Scenario {
	base := Scenario{
		TrueShare:       0.50,
		FalseShare:      0.32,
		OpinionShare:    0.18,
		RumorVirality:   4.0,
		OpinionVirality: 1.6,
		TrueReassert:    2.0,
		FalseReassert:   0.4,
		ActivitySkew:    0.8,
		ReliabilityLow:  0.55,
		ReliabilityHigh: 0.95,
		OpinionRate:     0.18,
	}
	mk := func(name string, sources, assertions, claims, originals int) Scenario {
		s := base
		s.Name = name
		s.Sources = sources
		s.Assertions = assertions
		s.Claims = claims
		s.OriginalClaims = originals
		s.Entities = 40 + isqrt(assertions)*3
		s.Places = 20 + isqrt(assertions)
		return s
	}
	return []Scenario{
		mk("Ukraine", 5403, 3703, 7192, 4242),
		mk("Kirkuk", 4816, 2795, 6188, 3079),
		mk("Superbug", 7764, 2873, 9426, 5831),
		mk("LA Marathon", 5174, 3537, 7148, 4332),
		mk("Paris Attack", 38844, 23513, 41249, 38794),
	}
}

// Preset returns the named scenario, or false when unknown.
func Preset(name string) (Scenario, bool) {
	for _, s := range Presets() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Small returns a reduced-scale scenario for tests and examples: the same
// behavioural parameters as a preset but a fraction of the volume. An
// unknown name yields a zero-volume scenario under that name, which
// Generate rejects with ErrBadScenario.
func Small(name string, scale int) Scenario {
	s, ok := Preset(name)
	if !ok {
		return Scenario{Name: name}
	}
	if scale < 1 {
		scale = 1
	}
	s.Name = s.Name + " (1/" + strconv.Itoa(scale) + ")"
	s.Sources /= scale
	s.Assertions /= scale
	s.Claims /= scale
	s.OriginalClaims /= scale
	s.Entities = 40 + isqrt(s.Assertions)*3
	s.Places = 20 + isqrt(s.Assertions)
	return s
}

func isqrt(v int) int {
	if v <= 0 {
		return 0
	}
	x := v
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + v/x) / 2
	}
	return x
}
