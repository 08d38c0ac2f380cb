// Package zones declares which packages each depsenselint analyzer
// patrols, so the contract lives in one place (and in DESIGN.md §9) rather
// than scattered across analyzers. Each analyzer looks its package's
// import path up in one map.
//
// A "deterministic zone" is a package whose exported results must be
// bit-for-bit reproducible from a seed at any worker count.
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
