// Package depsense is dependency-aware truth discovery for social sensing:
// a Go implementation of "On Source Dependency Models for Reliable Social
// Sensing: Algorithms and Fundamental Error Bounds" (ICDCS 2016).
//
// The package is a facade over the implementation packages under internal/
// and is the import surface for library consumers. It covers the full
// workflow:
//
//  1. Build a source-claim matrix with dependency indicators — directly
//     with a DatasetBuilder, or from a timestamped claim log plus a follow
//     Graph (BuildDataset), or from raw text messages through the Apollo
//     pipeline (RunPipeline).
//  2. Run a fact-finder: EM-Ext (the paper's dependency-aware estimator),
//     or any of the baselines it is evaluated against.
//  3. Bound what any estimator could do on the same data: the fundamental
//     error bound of Section III, exact or Gibbs-approximated.
//
// A minimal session:
//
//	b := depsense.NewDatasetBuilder(nSources, mAssertions)
//	b.AddClaim(i, j, dependent)
//	ds, err := b.Build()
//	res, err := depsense.NewEMExt(depsense.EMOptions{}).Run(ds)
//	ranked := res.Ranking()
//
// Every fact-finder also implements RunContext(ctx, ds) for cancellable,
// observable runs: deadlines and cancellation stop a run within one
// iteration (Result.Stopped records why it stopped), and a per-iteration
// IterationHook attached via WithIterationHook reports live progress.
//
// The cmd/ tools and examples/ directories demonstrate every entry point;
// DESIGN.md and EXPERIMENTS.md document the paper reproduction.
package depsense

import (
	"context"
	"math/rand"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/bound"
	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/model"
	"depsense/internal/runctx"
	"depsense/internal/stream"
	"depsense/internal/synthetic"
	"depsense/internal/twittersim"
)

// ---- Datasets -------------------------------------------------------------

type (
	// Dataset is an immutable source-claim matrix with dependency
	// indicators, the input to every fact-finder and bound computation.
	Dataset = claims.Dataset
	// DatasetBuilder accumulates claims and silent-dependent marks.
	DatasetBuilder = claims.Builder
	// ClaimRef identifies one claimant of an assertion.
	ClaimRef = claims.ClaimRef
	// DatasetSummary aggregates Table III-style statistics.
	DatasetSummary = claims.Summary
)

// NewDatasetBuilder creates a builder for n sources and m assertions.
func NewDatasetBuilder(n, m int) *DatasetBuilder { return claims.NewBuilder(n, m) }

// ---- Dependency graphs ----------------------------------------------------

type (
	// Graph is a follower graph: an edge i->k means source i follows (and
	// may repeat) source k.
	Graph = depgraph.Graph
	// Event is one timestamped claim.
	Event = depgraph.Event
)

// NewGraph creates an empty follower graph over n sources.
func NewGraph(n int) *Graph { return depgraph.NewGraph(n) }

// BuildDataset derives the source-claim matrix and the full dependency
// indicator matrix from a timestamped claim log and a follow graph,
// following the semantics of the paper's Figure 1: a claim is dependent iff
// an ancestor asserted the same thing strictly earlier.
func BuildDataset(g *Graph, events []Event, numAssertions int) (*Dataset, error) {
	return depgraph.BuildDataset(g, events, numAssertions)
}

// ---- Model parameters -----------------------------------------------------

type (
	// SourceParams is the per-source channel θ_i = {a, b, f, g}.
	SourceParams = model.SourceParams
	// Params is the full parameter set θ: per-source channels plus the
	// prior z = P(assertion true).
	Params = model.Params
)

// NewParams allocates a zeroed parameter set for n sources.
func NewParams(n int, z float64) *Params { return model.NewParams(n, z) }

// ---- Fact-finders ----------------------------------------------------------

type (
	// FactFinder scores the assertions of a dataset.
	FactFinder = factfind.FactFinder
	// Result carries per-assertion credibility, estimated parameters, and
	// ranking helpers.
	Result = factfind.Result
	// EMOptions tunes the EM estimators.
	EMOptions = core.Options
	// EMExt is the paper's dependency-aware estimator.
	EMExt = core.EMExt
)

// DefaultThreshold is the posterior decision threshold used throughout the
// paper's simulations.
const DefaultThreshold = factfind.DefaultThreshold

// NewEMExt constructs the dependency-aware estimator.
func NewEMExt(opts EMOptions) *EMExt { return &core.EMExt{Opts: opts} }

// Baselines returns the paper's comparison lineup (Fig. 11), EM-Ext first:
// EM-Social, EM, Voting, Sums, Average.Log, and TruthFinder.
func Baselines() []FactFinder { return baselines.All() }

// ---- Run lifecycle ----------------------------------------------------------

type (
	// Iteration is one progress observation of a running estimator: the
	// iteration (or sweep/block) number, the log-likelihood or sample
	// count where the algorithm tracks one, elapsed wall time, and — on
	// the final observation — the stop reason.
	Iteration = runctx.Iteration
	// IterationHook receives Iteration observations. Attach one to a
	// context with WithIterationHook and pass the context to any
	// fact-finder's RunContext (or to ErrorBoundContext /
	// RunPipelineContext).
	IterationHook = runctx.Hook
)

// Stop reasons reported in Result.Stopped and Iteration.Stopped.
const (
	// StopConverged: the algorithm met its convergence criterion.
	StopConverged = runctx.StopConverged
	// StopIterationCap: the iteration budget ran out first.
	StopIterationCap = runctx.StopIterationCap
	// StopCancelled: the run context was cancelled mid-run.
	StopCancelled = runctx.StopCancelled
	// StopDeadline: the run context's deadline expired mid-run.
	StopDeadline = runctx.StopDeadline
)

// WithIterationHook returns a context carrying h; estimators fire it once
// per iteration/sweep/checkpoint. Hooks compose: if ctx already carries one,
// both fire, earliest-attached first.
func WithIterationHook(ctx context.Context, h IterationHook) context.Context {
	return runctx.WithHook(ctx, h)
}

// StopReason maps an error returned by a RunContext-style call to
// StopCancelled, StopDeadline, or "" (not a context error).
func StopReason(err error) string { return runctx.Reason(err) }

// Posterior scores every assertion under known (or externally estimated)
// parameters — the E-step of Eq. (9) without any fitting. It returns the
// posteriors and the data log-likelihood.
func Posterior(ds *Dataset, p *Params) ([]float64, float64, error) {
	return core.Posterior(ds, p)
}

type (
	// Confidence quantifies the uncertainty of an estimated parameter set
	// via complete-data Fisher information (Cramér-Rao style Wald
	// intervals).
	Confidence = core.Confidence
	// Interval is one parameter's confidence interval.
	Interval = core.Interval
)

// ConfidenceIntervals computes parameter confidence intervals for an
// estimated θ and its posteriors at the given nominal level (e.g. 0.95).
func ConfidenceIntervals(ds *Dataset, p *Params, posterior []float64, level float64) (*Confidence, error) {
	return core.ConfidenceIntervals(ds, p, posterior, level)
}

// ---- Streaming --------------------------------------------------------------

type (
	// StreamEstimator ingests timestamped claims in batches and maintains
	// warm-started truth estimates.
	StreamEstimator = stream.Estimator
	// StreamOptions tunes the streaming estimator.
	StreamOptions = stream.Options
)

// NewStreamEstimator creates an empty streaming estimator.
func NewStreamEstimator(opts StreamOptions) *StreamEstimator { return stream.New(opts) }

// ---- Error bounds -----------------------------------------------------------

type (
	// BoundResult is a computed error bound with its false-positive /
	// false-negative decomposition.
	BoundResult = bound.Result
	// BoundOptions selects the computation method and its budget.
	BoundOptions = bound.DatasetOptions
	// GibbsOptions tunes the sampling approximation (Algorithm 1).
	GibbsOptions = bound.ApproxOptions
)

// Bound computation methods.
const (
	// BoundExact enumerates all 2^n claim patterns per dependency column.
	BoundExact = bound.MethodExact
	// BoundApprox runs the Gibbs-sampling approximation of Algorithm 1.
	BoundApprox = bound.MethodApprox
	// BoundConvolution runs the deterministic log-likelihood-ratio DP, an
	// O(n·bins) alternative that scales to hundreds of sources.
	BoundConvolution = bound.MethodConvolution
)

// ErrorBound computes the fundamental error bound of Section III for a
// dataset under known parameters: the Bayes risk of an optimal estimator,
// which lower-bounds any fact-finder's expected misclassification rate.
// rng drives Gibbs sampling and column sampling (MaxColumns); without
// either, rng may be nil. A nil rng where one is needed is an error.
func ErrorBound(ds *Dataset, p *Params, opts BoundOptions, rng *rand.Rand) (BoundResult, error) {
	return bound.ForDataset(ds, p, opts, rng)
}

// ErrorBoundContext is ErrorBound under a cancellable run-context: exact
// enumeration checks the context every block of patterns, the Gibbs
// approximation every sweep, and the convolution every node of its
// column tree.
func ErrorBoundContext(ctx context.Context, ds *Dataset, p *Params, opts BoundOptions, rng *rand.Rand) (BoundResult, error) {
	return bound.ForDatasetContext(ctx, ds, p, opts, rng)
}

// ---- Pipeline ----------------------------------------------------------------

type (
	// Message is one raw input item (a tweet) for the Apollo pipeline.
	Message = apollo.Message
	// PipelineInput is a complete pipeline input: messages plus the follow
	// graph.
	PipelineInput = apollo.Input
	// PipelineOptions tunes clustering and the ranked output size.
	PipelineOptions = apollo.Options
	// PipelineOutput carries the derived dataset, the clustering, and the
	// fact-finder's ranking.
	PipelineOutput = apollo.Output
	// Clusterer groups near-duplicate messages into assertions.
	Clusterer = cluster.Clusterer
	// LeaderClusterer is the single-pass inverted-index clusterer.
	LeaderClusterer = cluster.Leader
)

// RunPipeline executes the end-to-end fact-finding pipeline: cluster
// messages into assertions, derive the source-claim matrix and dependency
// indicators, run the fact-finder, and rank.
func RunPipeline(in PipelineInput, finder FactFinder, opts PipelineOptions) (*PipelineOutput, error) {
	return apollo.Run(in, finder, opts)
}

// RunPipelineContext is RunPipeline under a cancellable run-context; on
// cancellation mid-estimation the partial output is returned alongside the
// context's error.
func RunPipelineContext(ctx context.Context, in PipelineInput, finder FactFinder, opts PipelineOptions) (*PipelineOutput, error) {
	return apollo.RunContext(ctx, in, finder, opts)
}

// ---- Generators ---------------------------------------------------------------

type (
	// SyntheticConfig parameterizes the paper's Section V-A simulation
	// generator.
	SyntheticConfig = synthetic.Config
	// SyntheticWorld is a generated dataset with ground truth and the
	// generating parameters.
	SyntheticWorld = synthetic.World
	// TwitterScenario parameterizes the simulated Twitter substitute for
	// the paper's Table III datasets.
	TwitterScenario = twittersim.Scenario
	// TwitterWorld is one simulated tweet stream.
	TwitterWorld = twittersim.World
)

// DefaultSyntheticConfig returns the paper's default simulation setting.
func DefaultSyntheticConfig() SyntheticConfig { return synthetic.DefaultConfig() }

// GenerateSynthetic builds one synthetic world.
func GenerateSynthetic(cfg SyntheticConfig, rng *rand.Rand) (*SyntheticWorld, error) {
	return synthetic.Generate(cfg, rng)
}

// TwitterScenarios returns the five Table III-scale scenario presets.
func TwitterScenarios() []TwitterScenario { return twittersim.Presets() }

// GenerateTwitter simulates one tweet stream.
func GenerateTwitter(sc TwitterScenario, rng *rand.Rand) (*TwitterWorld, error) {
	return twittersim.Generate(sc, rng)
}
