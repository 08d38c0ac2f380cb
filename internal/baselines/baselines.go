// Package baselines implements the comparison algorithms from the paper's
// evaluation (Section V): the model-based estimators EM (IPSN'12) and
// EM-Social (IPSN'14), and the heuristic fact-finders Voting, Sums,
// Average.Log, and TruthFinder. None of the heuristics uses the dependency
// indicators — exactly the modeling gap the paper attributes their variance
// to.
package baselines

import (
	"context"
	"strings"

	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/factfind"
)

// EM is the IPSN'12 estimator of Wang et al.: maximum-likelihood truth
// discovery under the assumption that all sources are independent. It is
// the core EM engine with the dependency channel disabled.
type EM struct {
	Opts core.Options
}

var _ factfind.FactFinder = (*EM)(nil)

// Name implements factfind.FactFinder.
func (e *EM) Name() string { return "EM" }

// RunContext implements factfind.FactFinder.
func (e *EM) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	return core.RunCtx(ctx, ds, core.VariantIndependent, e.Opts)
}

// EMSocial is the IPSN'14 estimator: dependent claims are assumed to carry
// no information and are removed from the likelihood before running
// independent-source EM.
type EMSocial struct {
	Opts core.Options
}

var _ factfind.FactFinder = (*EMSocial)(nil)

// Name implements factfind.FactFinder.
func (e *EMSocial) Name() string { return "EM-Social" }

// RunContext implements factfind.FactFinder.
func (e *EMSocial) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	return core.RunCtx(ctx, ds, core.VariantSocial, e.Opts)
}

// lineup is the single declaration of the algorithm roster: canonical name
// plus a constructor building exactly one finder. Everything else — the
// All slice, the name list the HTTP API advertises, and the by-name lookup
// serving each request and apollo's -alg — derives from it, so the roster
// cannot drift between surfaces. The first allCount entries are the
// paper's Fig. 11 lineup in the paper's order; the remainder are the
// Pasternack & Roth extensions.
var lineup = []struct {
	name string
	make func(core.Options) factfind.FactFinder
}{
	{"EM-Ext", func(o core.Options) factfind.FactFinder { return &core.EMExt{Opts: o} }},
	{"EM-Social", func(o core.Options) factfind.FactFinder { return &EMSocial{Opts: o} }},
	{"EM", func(o core.Options) factfind.FactFinder { return &EM{Opts: o} }},
	{"Voting", func(core.Options) factfind.FactFinder { return &Voting{} }},
	{"Sums", func(core.Options) factfind.FactFinder { return &Sums{} }},
	{"Average.Log", func(core.Options) factfind.FactFinder { return &AverageLog{} }},
	{"Truth-Finder", func(core.Options) factfind.FactFinder { return &TruthFinder{} }},
	{"Investment", func(core.Options) factfind.FactFinder { return &Investment{} }},
	{"PooledInvestment", func(core.Options) factfind.FactFinder { return &PooledInvestment{} }},
}

// allCount is how many lineup entries belong to the paper's evaluation.
const allCount = 7

// All returns the full algorithm lineup of the empirical evaluation
// (Fig. 11), in the paper's order: EM-Ext first, then the baselines, every
// EM variant with default options.
func All() []factfind.FactFinder {
	out := make([]factfind.FactFinder, 0, allCount)
	for _, e := range lineup[:allCount] {
		out = append(out, e.make(core.Options{}))
	}
	return out
}

// ExtendedNames returns the canonical names of the extended lineup, in
// lineup order, without constructing any finder. Serving layers build this
// once and answer the algorithm-listing endpoint from the copy.
func ExtendedNames() []string {
	names := make([]string, len(lineup))
	for i, e := range lineup {
		names[i] = e.name
	}
	return names
}

// ExtendedByName constructs only the named finder (matched
// case-insensitively against the canonical names) with the given options,
// or nil when the name is unknown. It exists so a serving hot path
// resolving one algorithm per request does not instantiate the entire
// nine-estimator roster just to string-match a name.
func ExtendedByName(name string, opts core.Options) factfind.FactFinder {
	for _, e := range lineup {
		if strings.EqualFold(e.name, name) {
			return e.make(opts)
		}
	}
	return nil
}
