// Package seedsource implements the depsenselint analyzer that keeps
// nondeterminism sources — RNGs and wall clocks — behind the repository's
// injection points.
//
// The reproducibility contract (DESIGN.md, "run lifecycle" and "parallel
// determinism" sections) is that every random draw flows from an explicit
// seed through depsense/internal/randutil, and every timestamp that lands
// in a result flows from an injectable clock. The analyzer therefore flags,
// in library code:
//
//   - any use of math/rand's (or math/rand/v2's) process-global source
//     (rand.Intn, rand.Float64, rand.Shuffle, ...), which is seeded
//     nondeterministically since Go 1.20;
//   - rand.Seed, which mutates global state and is deprecated;
//   - direct generator construction (rand.New, rand.NewSource) outside
//     depsense/internal/randutil, the blessed constructor package;
//   - bare time.Now() inside clocked zones (see internal/analysis/zones);
//     wall-clock *timing* measurements are legitimate there and carry a
//     //lint:allow seedsource <reason> suppression instead.
package seedsource

import (
	"go/ast"

	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/zonefacts"
)

// Analyzer flags global-source randomness, ad-hoc RNG construction, and
// bare wall-clock reads in clocked zones.
var Analyzer = &framework.Analyzer{
	Name: "seedsource",
	Doc: "flag math/rand global-source use, rand.Seed, RNG construction outside " +
		"internal/randutil, and bare time.Now() in clocked zones",
	Requires: []*framework.Analyzer{zonefacts.Analyzer},
	Run:      run,
}

// randutilPath is the only package allowed to construct RNGs directly.
const randutilPath = "depsense/internal/randutil"

// globalSource lists math/rand package-level functions that draw from the
// process-global source.
var globalSource = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 additions.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"N": true, "Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

func run(pass *framework.Pass) error {
	inClockedZone := zonefacts.Of(pass).Clocked
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := framework.SelectorPkgPath(pass.TypesInfo, call.Fun)
			switch path {
			case "math/rand", "math/rand/v2":
				switch {
				case name == "Seed":
					pass.Reportf(call.Pos(),
						"rand.Seed mutates the process-global source; seed an explicit generator with randutil.New(seed) instead")
				case globalSource[name]:
					pass.Reportf(call.Pos(),
						"rand.%s draws from the process-global source (nondeterministically seeded since Go 1.20); "+
							"thread a *rand.Rand from randutil.New(seed) instead", name)
				case (name == "New" || name == "NewSource" || name == "NewPCG" || name == "NewChaCha8") &&
					pass.Path != randutilPath:
					pass.Reportf(call.Pos(),
						"construct RNGs via depsense/internal/randutil (explicit seed, one generator per run) "+
							"rather than rand.%s, so reproducibility flows from a single seed", name)
				}
			case "time":
				if name == "Now" && inClockedZone {
					pass.Reportf(call.Pos(),
						"bare time.Now() in clocked zone %s: results must not read the wall clock directly; "+
							"inject a clock (see report.Input.Clock / the clock argument of eval.Bench) or, for a pure "+
							"timing measurement, suppress with //lint:allow seedsource <reason>", pass.Path)
				}
			}
			return true
		})
	}
	return nil
}
