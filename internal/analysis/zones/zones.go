// Package zones centralizes which packages each depsenselint analyzer
// patrols, so the contract lives in one place (and in DESIGN.md) rather
// than scattered across analyzers.
//
// A "deterministic zone" is a package whose exported results must be
// bit-for-bit reproducible from a seed at any worker count — the contract
// introduced by the PR 2 parallel execution work. Functions outside these
// packages can opt in with a "//depsense:deterministic" doc comment.
//
// These maps are the root declarations only: analyzers no longer read them
// directly. The zonefacts analyzer unites them with in-package
// "//depsense:zone" directives and publishes the result as a package fact,
// which is what the checking analyzers consume (see
// internal/analysis/zonefacts). New packages should prefer the in-package
// directive; the maps remain for the packages that predate it and as the
// single list the zone-completeness test audits.
package zones

// Deterministic lists the packages whose outputs must be bit-for-bit
// reproducible; maporder forbids unordered map iteration here.
var Deterministic = map[string]bool{
	"depsense/internal/core":     true,
	"depsense/internal/bound":    true,
	"depsense/internal/gibbs":    true,
	"depsense/internal/parallel": true,
	"depsense/internal/cluster":  true,
	"depsense/internal/depgraph": true,
	"depsense/internal/claims":   true,
	"depsense/internal/model":    true,
	"depsense/internal/stream":   true,
	"depsense/internal/ingest":   true,
	"depsense/internal/obs":      true,
	"depsense/internal/trace":    true,
	"depsense/internal/qual":     true,
	"depsense/internal/jsonl":    true,
	"depsense/cmd/ssaudit":       true,
}

// Estimator lists the packages that run open-ended iteration (EM rounds,
// Gibbs sweeps, belief/trust rounds, stream refits); ctxloop requires their
// unbounded loops to consult the runctx cancellation contract from PR 1.
var Estimator = map[string]bool{
	"depsense/internal/core":      true,
	"depsense/internal/gibbs":     true,
	"depsense/internal/bound":     true,
	"depsense/internal/baselines": true,
	"depsense/internal/stream":    true,
	"depsense/internal/ingest":    true,
	"depsense/internal/factfind":  true,
	"depsense/internal/apollo":    true,
	"depsense/internal/parallel":  true,
}

// Numeric lists the packages doing posterior/likelihood arithmetic
// (Eqs. 9–14 territory); probexpr patrols them for raw-probability
// products that belong in log-space and exact 0/1 comparisons.
var Numeric = map[string]bool{
	"depsense/internal/model":     true,
	"depsense/internal/core":      true,
	"depsense/internal/bound":     true,
	"depsense/internal/gibbs":     true,
	"depsense/internal/baselines": true,
	"depsense/internal/stats":     true,
	"depsense/internal/stream":    true,
	"depsense/internal/synthetic": true,
}

// Pipeline lists the packages built around staged, bounded-channel
// pipelines; chandisc requires their channel sends to be shed- or
// cancellation-aware selects and each channel to be closed exactly once by
// its owning stage.
var Pipeline = map[string]bool{
	"depsense/internal/ingest": true,
	"depsense/internal/serve":  true,
}

// Clocked lists the packages where a bare time.Now() is suspect: either a
// deterministic zone or a package that stamps results users diff across
// runs. seedsource requires wall-clock reads here to be injected clocks or
// explicitly allowed as timing measurements.
var Clocked = map[string]bool{
	"depsense/internal/core":       true,
	"depsense/internal/bound":      true,
	"depsense/internal/gibbs":      true,
	"depsense/internal/parallel":   true,
	"depsense/internal/cluster":    true,
	"depsense/internal/depgraph":   true,
	"depsense/internal/baselines":  true,
	"depsense/internal/eval":       true,
	"depsense/internal/report":     true,
	"depsense/internal/stream":     true,
	"depsense/internal/ingest":     true,
	"depsense/internal/twittersim": true,
	"depsense/internal/obs":        true,
	"depsense/internal/apollo":     true,
	"depsense/internal/httpapi":    true,
	"depsense/internal/serve":      true,
	"depsense/internal/trace":      true,
	"depsense/internal/qual":       true,
	"depsense/cmd/ssaudit":         true,
	"depsense/cmd/ssingest":        true,
}
