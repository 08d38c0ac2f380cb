package baselines

import (
	"context"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
)

// handcrafted builds a small dataset: assertion 0 has broad support,
// assertion 1 narrow support, assertion 2 none.
func handcrafted(t *testing.T) *claims.Dataset {
	t.Helper()
	b := claims.NewBuilder(5, 3)
	for i := 0; i < 4; i++ {
		b.AddClaim(i, 0, false)
	}
	b.AddClaim(4, 1, false)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAllLineup(t *testing.T) {
	algs := All()
	wantNames := []string{"EM-Ext", "EM-Social", "EM", "Voting", "Sums", "Average.Log", "Truth-Finder"}
	if len(algs) != len(wantNames) {
		t.Fatalf("lineup has %d algorithms", len(algs))
	}
	for i, alg := range algs {
		if alg.Name() != wantNames[i] {
			t.Errorf("lineup[%d] = %q, want %q", i, alg.Name(), wantNames[i])
		}
	}
}

func TestAllRunOnSynthetic(t *testing.T) {
	cfg := synthetic.DefaultConfig()
	w, err := synthetic.Generate(cfg, randutil.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range All() {
		res, err := alg.RunContext(context.Background(), w.Dataset)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if len(res.Posterior) != w.Dataset.M() {
			t.Fatalf("%s: posterior length %d", alg.Name(), len(res.Posterior))
		}
		for j, p := range res.Posterior {
			if p < 0 || p > 1 {
				t.Fatalf("%s: score[%d] = %v outside [0,1]", alg.Name(), j, p)
			}
		}
	}
}

func TestVotingCounts(t *testing.T) {
	ds := handcrafted(t)
	res, err := (&Voting{}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior[0] != 1 || res.Posterior[1] != 0.25 || res.Posterior[2] != 0 {
		t.Fatalf("voting scores = %v", res.Posterior)
	}
	if got := res.Ranking(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ranking = %v", got)
	}
}

func TestVotingEmptyDataset(t *testing.T) {
	ds, err := claims.NewBuilder(3, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Voting{}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Posterior {
		if p != 0 {
			t.Fatal("claims-free dataset should score zero")
		}
	}
}

func TestSumsRanksSupportedFirst(t *testing.T) {
	ds := handcrafted(t)
	res, err := (&Sums{}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior[0] <= res.Posterior[1] || res.Posterior[1] <= res.Posterior[2] {
		t.Fatalf("sums scores = %v", res.Posterior)
	}
}

// TestSumsMutualReinforcement: a source sharing claims with a well-connected
// cluster boosts its other claims above an otherwise identical claim from an
// isolated source.
func TestSumsMutualReinforcement(t *testing.T) {
	b := claims.NewBuilder(5, 4)
	// Cluster: sources 0-2 all claim assertion 0; source 0 also claims 1.
	for i := 0; i < 3; i++ {
		b.AddClaim(i, 0, false)
	}
	b.AddClaim(0, 1, false)
	// Isolated: source 3 claims assertion 2 (and nothing else).
	b.AddClaim(3, 2, false)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Sums{}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior[1] <= res.Posterior[2] {
		t.Fatalf("reinforced claim (%v) not above isolated claim (%v)",
			res.Posterior[1], res.Posterior[2])
	}
}

func TestAverageLogProlificSources(t *testing.T) {
	ds := handcrafted(t)
	res, err := (&AverageLog{}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior[0] <= res.Posterior[2] {
		t.Fatalf("avg.log scores = %v", res.Posterior)
	}
}

func TestTruthFinderBasics(t *testing.T) {
	ds := handcrafted(t)
	tf := &TruthFinder{}
	res, err := tf.RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("TruthFinder did not converge on a tiny dataset")
	}
	if res.Posterior[0] <= res.Posterior[1] {
		t.Fatalf("truthfinder scores = %v", res.Posterior)
	}
	// Confidence of an unclaimed assertion is the logistic at 0 = 0.5;
	// broad support must clear that.
	if res.Posterior[0] <= 0.5 {
		t.Fatalf("broadly supported assertion scored %v", res.Posterior[0])
	}
}

func TestTruthFinderTrustSaturationIsFinite(t *testing.T) {
	// One source claiming one assertion drives trust toward the logistic
	// fixed point; -ln(1-t) must stay finite (no NaN/Inf propagation).
	b := claims.NewBuilder(1, 1)
	b.AddClaim(0, 0, false)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&TruthFinder{MaxIters: 500, InitialTrust: 0.999999}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior[0] < 0 || res.Posterior[0] > 1 {
		t.Fatalf("score = %v", res.Posterior[0])
	}
}

// TestHeuristicsInflatedByDependentClaims documents the failure mode the
// paper attributes to dependency-blind algorithms: adding dependent repeats
// raises a false assertion's rank under Voting.
func TestHeuristicsInflatedByDependentClaims(t *testing.T) {
	b := claims.NewBuilder(8, 2)
	// Assertion 0: 3 independent claims. Assertion 1: 2 independent + 4
	// dependent repeats.
	for i := 0; i < 3; i++ {
		b.AddClaim(i, 0, false)
	}
	b.AddClaim(3, 1, false)
	b.AddClaim(4, 1, false)
	for i := 4; i < 8; i++ {
		b.AddClaim(i, 1, true)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Voting{}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior[1] <= res.Posterior[0] {
		t.Fatal("voting should be fooled by dependent repeats (that is its documented flaw)")
	}
}

func TestBaselinesAccuracyOnEasyWorld(t *testing.T) {
	cfg := synthetic.Config{
		Sources:    12,
		Assertions: 60,
		Trees:      synthetic.FixedInt(6),
		TrueRatio:  synthetic.Fixed(0.5),
		POn:        synthetic.Fixed(0.9),
		PDep:       synthetic.Fixed(0.4),
		PIndepT:    synthetic.Fixed(0.95),
		PDepT:      synthetic.Fixed(0.8),
	}
	w, err := synthetic.Generate(cfg, randutil.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []factfind.FactFinder{&EM{}, &EMSocial{}} {
		res, err := alg.RunContext(context.Background(), w.Dataset)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		c, err := stats.Classify(res.Decisions(0.5), w.Truth)
		if err != nil {
			t.Fatal(err)
		}
		if c.Accuracy < 0.85 {
			t.Errorf("%s accuracy %v on easy world", alg.Name(), c.Accuracy)
		}
	}
}

func TestInvestmentRanksSupportedFirst(t *testing.T) {
	ds := handcrafted(t)
	for _, alg := range []factfind.FactFinder{&Investment{}, &PooledInvestment{}} {
		res, err := alg.RunContext(context.Background(), ds)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.Posterior[0] <= res.Posterior[1] || res.Posterior[1] <= res.Posterior[2] {
			t.Fatalf("%s scores = %v", alg.Name(), res.Posterior)
		}
		for j, p := range res.Posterior {
			if p < 0 || p > 1 {
				t.Fatalf("%s: score[%d] = %v", alg.Name(), j, p)
			}
		}
	}
}

func TestInvestmentOnEmptyDataset(t *testing.T) {
	ds, err := claims.NewBuilder(3, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []factfind.FactFinder{&Investment{}, &PooledInvestment{}} {
		res, err := alg.RunContext(context.Background(), ds)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for _, p := range res.Posterior {
			if p != 0 {
				t.Fatalf("%s scored an unclaimed assertion", alg.Name())
			}
		}
	}
}

func TestExtendedLineup(t *testing.T) {
	algs := extended()
	if len(algs) != 9 {
		t.Fatalf("extended lineup has %d algorithms", len(algs))
	}
	if algs[7].Name() != "Investment" || algs[8].Name() != "PooledInvestment" {
		t.Fatalf("tail: %s, %s", algs[7].Name(), algs[8].Name())
	}
	cfg := synthetic.DefaultConfig()
	w, err := synthetic.Generate(cfg, randutil.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range algs[7:] {
		res, err := alg.RunContext(context.Background(), w.Dataset)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if len(res.Posterior) != w.Dataset.M() {
			t.Fatalf("%s posterior length", alg.Name())
		}
	}
}
