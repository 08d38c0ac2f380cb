// Package maporder implements the depsenselint analyzer that forbids
// ranging over maps inside deterministic zones.
//
// Go randomizes map iteration order per range statement, so any reduction,
// matrix build, or accumulation that ranges over a map inside a package
// whose outputs must be bit-for-bit reproducible (internal/core,
// internal/bound, internal/gibbs, ... — see internal/analysis/zones) is a
// latent reproducibility bug even when today's consumer happens to sort
// downstream. The fix is to extract and sort the keys before iterating; a
// site that is provably order-independent may instead carry a
// //lint:allow maporder <reason> suppression.
package maporder

import (
	"go/ast"
	"go/types"

	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/zones"
)

// Analyzer flags range-over-map statements in deterministic zones.
var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc: "flag range over a map in a deterministic zone; Go randomizes map order, " +
		"so iterate sorted keys (or justify with //lint:allow maporder <reason>)",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !zones.Deterministic[pass.Path] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(rs.Pos(),
						"range over map %s in deterministic zone %s: map order is randomized; "+
							"iterate sorted keys (sort.* / slices.Sort) or suppress with //lint:allow maporder <reason>",
						types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), pass.Path)
				}
				return true
			})
		}
	}
	return nil
}
