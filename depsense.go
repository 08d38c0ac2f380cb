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
//     pipeline (RunPipeline), fed by a simulated stream or a tweet archive
//     (ReadTweetArchive).
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
//	res, err := depsense.NewEMExt(depsense.EMOptions{}).RunContext(context.Background(), ds)
//	ranked := res.Ranking()
//
// RunContext(ctx, ds) is every fact-finder's one entry point, and the
// context makes the run cancellable and observable: deadlines and
// cancellation stop a run within one iteration (Result.Stopped records why
// it stopped), and a per-iteration IterationHook attached via
// WithIterationHook reports live progress.
//
// The examples/ programs are written against this package alone;
// DESIGN.md and EXPERIMENTS.md document the paper reproduction.
package depsense

import (
	"context"
	"io"
	"math/rand"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/bound"
	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/grader"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/report"
	"depsense/internal/runctx"
	"depsense/internal/stream"
	"depsense/internal/synthetic"
	"depsense/internal/tweetjson"
	"depsense/internal/twittersim"
)

// ---- Datasets -------------------------------------------------------------

type (
	// Dataset is an immutable source-claim matrix with dependency
	// indicators, the input to every fact-finder and bound computation.
	Dataset = claims.Dataset
	// DatasetBuilder accumulates claims and silent-dependent marks.
	DatasetBuilder = claims.Builder
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
	// fact-finder's RunContext or to StreamEstimator.AddBatchContext.
	IterationHook = runctx.Hook
)

// WithIterationHook returns a context carrying h; estimators fire it once
// per iteration/sweep/checkpoint. Hooks compose: if ctx already carries one,
// both fire, earliest-attached first.
func WithIterationHook(ctx context.Context, h IterationHook) context.Context {
	return runctx.WithHook(ctx, h)
}

// StopReason maps an error returned by a RunContext-style call to
// "cancelled", "deadline", or "" (not a context error).
func StopReason(err error) string { return runctx.Reason(err) }

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
)

// Bound computation methods.
const (
	// BoundExact enumerates all 2^n claim patterns per dependency column.
	BoundExact = bound.MethodExact
	// BoundApprox runs the Gibbs-sampling approximation of Algorithm 1.
	BoundApprox = bound.MethodApprox
)

// ErrorBound computes the fundamental error bound of Section III for a
// dataset under known parameters: the Bayes risk of an optimal estimator,
// which lower-bounds any fact-finder's expected misclassification rate.
// rng drives Gibbs sampling and column sampling (MaxColumns); without
// either, rng may be nil. A nil rng where one is needed is an error.
func ErrorBound(ds *Dataset, p *Params, opts BoundOptions, rng *rand.Rand) (BoundResult, error) {
	return bound.ForDatasetContext(context.Background(), ds, p, opts, rng)
}

// PatternTableBound computes the error bound from tabulated per-pattern
// likelihoods P(SC_j|C_j=1) (p1) and P(SC_j|C_j=0) (p0) under prior z, the
// form of the paper's Table I walk-through: Err = Σ min(z·p1, (1-z)·p0).
func PatternTableBound(p1, p0 []float64, z float64) (BoundResult, error) {
	return bound.FromPatternTable(p1, p0, z)
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
	// ReportInput collects what WriteReport renders.
	ReportInput = report.Input
)

// RunPipeline executes the end-to-end fact-finding pipeline: cluster
// messages into assertions, derive the source-claim matrix and dependency
// indicators, run the fact-finder, and rank.
func RunPipeline(in PipelineInput, finder FactFinder, opts PipelineOptions) (*PipelineOutput, error) {
	return apollo.Run(in, finder, opts)
}

// ReadTweetArchive parses a Twitter API v1.1 JSONL archive into a pipeline
// input: sources are densely renumbered, messages sorted chronologically,
// and every retweet adds a follow edge retweeter -> original author.
// screenNames[i] is the display name of dense source id i.
func ReadTweetArchive(r io.Reader) (in PipelineInput, screenNames []string, err error) {
	tweets, err := tweetjson.Parse(r)
	if err != nil {
		return PipelineInput{}, nil, err
	}
	in, mapping, err := tweetjson.ToPipeline(tweets)
	if err != nil {
		return PipelineInput{}, nil, err
	}
	return in, mapping.ScreenNames, nil
}

// WriteReport renders a pipeline run as a self-contained HTML document.
func WriteReport(w io.Writer, in ReportInput) error { return report.Render(w, in) }

// ---- Generators ---------------------------------------------------------------

// NewRand returns a generator seeded with seed, for GenerateSynthetic,
// GenerateTwitter and ErrorBound: the same seed reproduces the same draws.
func NewRand(seed int64) *rand.Rand { return randutil.New(seed) }

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

// SmallTwitterScenario returns the Table III preset called name at 1/scale
// of its volume. An unknown name yields a zero-volume scenario that
// GenerateTwitter rejects.
func SmallTwitterScenario(name string, scale int) TwitterScenario {
	return twittersim.Small(name, scale)
}

// GenerateTwitter simulates one tweet stream.
func GenerateTwitter(sc TwitterScenario, rng *rand.Rand) (*TwitterWorld, error) {
	return twittersim.Generate(sc, rng)
}

// ---- Grading --------------------------------------------------------------------

// Kind is a grader's label for an assertion (Section V-C).
type Kind = twittersim.Kind

// Assertion kinds.
const (
	KindTrue    = twittersim.KindTrue
	KindFalse   = twittersim.KindFalse
	KindOpinion = twittersim.KindOpinion
)

// Score counts the labels of a ranked cut-off; Accuracy is the paper's
// #True/(#True+#False+#Opinion).
type Score = grader.Score

// Grade labels the clusters of a pipeline run over w's tweets (in stream
// order) the way the paper's human graders would: each cluster takes the
// kind of the majority ground-truth assertion among its tweets.
func Grade(out *PipelineOutput, w *TwitterWorld) ([]Kind, error) {
	return grader.Grade(out.MessageAssertion, w.Tweets, w.Kinds)
}

// ScoreTopK grades a ranked prefix against per-assertion labels.
func ScoreTopK(ranked []int, labels []Kind) (Score, error) { return grader.ScoreTopK(ranked, labels) }
