// Package probexpr implements the depsenselint analyzer that patrols
// numeric packages for probability arithmetic that belongs in log-space.
//
// The paper's posterior computations (Eqs. 9–14) multiply per-source
// emission probabilities across sources; with hundreds of sources a raw
// product underflows float64 long before the posterior itself is
// degenerate, which is why the E-step accumulates log-likelihood terms and
// resolves them with LogSumExp. The analyzer flags two hazards in the
// numeric zones (see internal/analysis/zones):
//
//   - a chained multiplication of four or more probability-named factors
//     (a/b/f/g/z-style parameters, p*/prob*/posterior names) outside a
//     log-space helper — the length at which raw products start risking
//     underflow and at which log-space is always the right representation;
//   - an exact ==/!= comparison of a probability-named float against the
//     literals 0 or 1 — model probabilities are clamped to
//     [ProbEpsilon, 1-ProbEpsilon] by model.ClampProb and never reach the
//     exact endpoints, so such comparisons are dead or wrong.
//
// The fix is the log-space helpers in depsense/internal/model (SafeLog,
// LogSumExp, LogProd) or an epsilon-aware comparison.
package probexpr

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/zones"
)

// Analyzer flags raw-space probability products and exact 0/1 probability
// comparisons in numeric packages.
var Analyzer = &framework.Analyzer{
	Name: "probexpr",
	Doc: "flag chained raw-space products of >=4 probability-named factors and " +
		"==/!= comparisons of probabilities against exact 0/1 literals",
	Run: run,
}

// minChain is the factor count at which a raw probability product is
// flagged.
const minChain = 4

func run(pass *framework.Pass) error {
	if !zones.Numeric[pass.Path] {
		return nil
	}
	for _, file := range pass.Files {
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.MUL:
				checkProduct(pass, file, be)
				// Descend no further: checkProduct flattened the whole
				// chain, and nested MUL operands would double-report.
				return false
			case token.EQL, token.NEQ:
				checkExactCompare(pass, be)
			}
			return true
		})
	}
	return nil
}

// checkProduct flattens a multiplication chain rooted at be and reports it
// when enough probability-named float factors are chained outside a
// log-space helper.
func checkProduct(pass *framework.Pass, file *ast.File, be *ast.BinaryExpr) {
	if !isFloat(pass.TypesInfo, be) {
		return
	}
	if fd := framework.EnclosingFunc(file, be.Pos()); fd != nil && strings.Contains(strings.ToLower(fd.Name.Name), "log") {
		return // log-space helper: products here are the conversion point
	}
	var factors []ast.Expr
	flattenMul(be, &factors)
	if len(factors) < minChain {
		return
	}
	named := 0
	for _, f := range factors {
		if probNamed(f) {
			named++
		}
	}
	if named < minChain {
		return
	}
	pass.Reportf(be.Pos(),
		"raw-space product of %d probability factors (%d total): chains this long underflow float64 "+
			"(Eqs. 9-14 posteriors); accumulate with model.LogProd/model.SafeLog and resolve via model.LogSumExp, "+
			"or suppress with //lint:allow probexpr <reason>", named, len(factors))
}

// checkExactCompare reports ==/!= between a probability-named float and an
// exact 0 or 1 literal.
func checkExactCompare(pass *framework.Pass, be *ast.BinaryExpr) {
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		probSide, litSide := pair[0], pair[1]
		lit, ok := exactZeroOrOne(pass.TypesInfo, litSide)
		if !ok {
			continue
		}
		if isFloat(pass.TypesInfo, probSide) && probNamed(probSide) {
			pass.Reportf(be.Pos(),
				"probability compared against exact %s: model probabilities are clamped to "+
					"[ProbEpsilon, 1-ProbEpsilon] (model.ClampProb) and never reach %s exactly; "+
					"compare against the epsilon bounds or with a tolerance, or suppress with //lint:allow probexpr <reason>",
				lit, lit)
			return
		}
	}
}

// flattenMul appends the leaf factors of a *-chain to out.
func flattenMul(e ast.Expr, out *[]ast.Expr) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		flattenMul(v.X, out)
	case *ast.BinaryExpr:
		if v.Op == token.MUL {
			flattenMul(v.X, out)
			flattenMul(v.Y, out)
			return
		}
		*out = append(*out, v)
	default:
		*out = append(*out, e)
	}
}

// probNameRe matches the paper's parameter spellings (a, b, f, g, z, with
// optional digit suffixes), generic probability names (p, q, pi, theta,
// w0/w1 weights), and common prefixed forms (pTrue, probFalse, ...).
var probNameRe = regexp.MustCompile(`(?i)^(a|b|f|g|z|p|q|w|pi|theta|on|off)\d*$|prob|posterior|likeli|belief|credib|^p[A-Z_]`)

// probNamed reports whether the expression reads like a probability: a
// matching identifier/selector/call/index, or the complement (1 - p) of
// one.
func probNamed(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return probNamed(v.X)
	case *ast.Ident:
		return probNameRe.MatchString(v.Name)
	case *ast.SelectorExpr:
		return probNameRe.MatchString(v.Sel.Name)
	case *ast.IndexExpr:
		return probNamed(v.X)
	case *ast.CallExpr:
		switch fun := v.Fun.(type) {
		case *ast.Ident:
			return probNameRe.MatchString(fun.Name)
		case *ast.SelectorExpr:
			return probNameRe.MatchString(fun.Sel.Name)
		}
	case *ast.BinaryExpr:
		// Complement: 1 - p is as much a probability as p.
		if v.Op == token.SUB && isUntypedOne(v.X) {
			return probNamed(v.Y)
		}
	}
	return false
}

func isUntypedOne(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && (lit.Value == "1" || lit.Value == "1.0")
}

// exactZeroOrOne reports whether e is a constant exactly equal to 0 or 1,
// returning its spelling.
func exactZeroOrOne(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return "", false
	}
	if constant.Compare(v, token.EQL, constant.MakeInt64(0)) {
		return "0", true
	}
	if constant.Compare(v, token.EQL, constant.MakeInt64(1)) {
		return "1", true
	}
	return "", false
}

// isFloat reports whether the expression's type is a floating-point kind.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
