// Package zonefacts is the fact-producing pass at the root of the
// depsenselint analyzer DAG: it computes each package's zone membership
// once and publishes it as a package fact, so the checking analyzers
// consult facts instead of hard-coded package maps.
//
// Membership comes from two sources, united:
//
//   - the root maps in internal/analysis/zones (the legacy, central
//     declaration), and
//   - an in-package "//depsense:zone <zone>[,<zone>...]" directive in any
//     file's package doc comment, which lets a new package opt into a
//     contract without editing the linter.
//
// Because the driver analyzes packages dependency-first, downstream
// analyzers can also ask for the zone fact of any package the current one
// imports (e.g. "is this callee's package deterministic?"), which is how
// zone membership propagates through the call graph.
package zonefacts

import (
	"strings"

	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/zones"
)

// ZoneFact is the package fact recording zone membership.
type ZoneFact struct {
	Deterministic bool `json:"deterministic,omitempty"`
	Estimator     bool `json:"estimator,omitempty"`
	Numeric       bool `json:"numeric,omitempty"`
	Clocked       bool `json:"clocked,omitempty"`
	Pipeline      bool `json:"pipeline,omitempty"`
}

// AFact marks ZoneFact as a framework fact.
func (*ZoneFact) AFact() {}

// ZoneMarker is the package-doc directive declaring zone membership in the
// package itself, e.g. "//depsense:zone deterministic,clocked".
const ZoneMarker = "//depsense:zone"

// Analyzer computes and exports each package's ZoneFact. It reports a
// finding only for malformed zone directives; every other analyzer depends
// on it via Requires.
var Analyzer = &framework.Analyzer{
	Name: "zonefacts",
	Doc: "compute zone membership (zones maps ∪ //depsense:zone package directives) " +
		"and export it as a package fact for the checking analyzers",
	Run: run,
}

func run(pass *framework.Pass) error {
	z := ZoneFact{
		Deterministic: zones.Deterministic[pass.Path],
		Estimator:     zones.Estimator[pass.Path],
		Numeric:       zones.Numeric[pass.Path],
		Clocked:       zones.Clocked[pass.Path],
		Pipeline:      zones.Pipeline[pass.Path],
	}
	for _, file := range pass.Files {
		if file.Doc == nil {
			continue
		}
		for _, c := range file.Doc.List {
			if !strings.HasPrefix(c.Text, ZoneMarker) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ZoneMarker)
			if rest == "" || !(rest[0] == ' ' || rest[0] == '\t') {
				continue // e.g. //depsense:zonefoo — not this directive
			}
			for _, name := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
				switch name {
				case "deterministic":
					z.Deterministic = true
				case "estimator":
					z.Estimator = true
				case "numeric":
					z.Numeric = true
				case "clocked":
					z.Clocked = true
				case "pipeline":
					z.Pipeline = true
				default:
					pass.Reportf(c.Pos(),
						"unknown zone %q in %s directive (valid: deterministic, estimator, numeric, clocked, pipeline)",
						name, ZoneMarker)
				}
			}
		}
	}
	return pass.ExportPackageFact(&z)
}

// Of returns the zone membership of the package under analysis. It must be
// called from an analyzer that lists zonefacts.Analyzer in Requires.
func Of(pass *framework.Pass) ZoneFact {
	var z ZoneFact
	pass.ImportPackageFact(pass.Path, &z)
	return z
}

// PkgZone returns the zone membership of the package with the given import
// path — the package under analysis or any of its (transitive) imports,
// which the driver has already analyzed. The second result reports whether
// a fact was found (false for packages outside the analysis scope).
func PkgZone(pass *framework.Pass, path string) (ZoneFact, bool) {
	var z ZoneFact
	ok := pass.ImportPackageFact(path, &z)
	return z, ok
}
