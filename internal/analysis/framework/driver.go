package framework

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one post-suppression diagnostic, positioned and attributed.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// StaleAllowName is the analyzer name under which -staleallow findings
// (well-formed //lint:allow directives that suppress nothing) report.
const StaleAllowName = "staleallow"

// Result is the output of one driver run.
type Result struct {
	// Findings are the surviving post-suppression diagnostics, sorted by
	// position. Malformed or reasonless directives surface here under the
	// reserved "lintallow" name, which no directive can suppress: every
	// suppression must carry a justification.
	Findings []Finding
	// StaleAllows flags every well-formed //lint:allow directive that
	// suppressed no diagnostic of an analyzer it names, or that names an
	// analyzer not in the roster. Reported separately so the default mode
	// ignores them and `-staleallow` can audit.
	StaleAllows []Finding
}

// Run applies every analyzer to every package, filters the diagnostics
// through //lint:allow directives, and returns the sorted findings and
// stale allows.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	rosterNames := map[string]bool{AllowName: true}
	for _, a := range analyzers {
		rosterNames[a.Name] = true
	}
	res := &Result{}
	for _, pkg := range pkgs {
		findings, stale, err := runPackage(pkg, analyzers, rosterNames)
		if err != nil {
			return nil, err
		}
		res.Findings = append(res.Findings, findings...)
		res.StaleAllows = append(res.StaleAllows, stale...)
	}
	sortFindings(res.Findings)
	sortFindings(res.StaleAllows)
	return res, nil
}

// runPackage applies the full roster to one package and resolves its
// suppressions, returning the package's findings and stale allows.
func runPackage(pkg *Package, roster []*Analyzer, rosterNames map[string]bool) (findings, stale []Finding, err error) {
	allows := parseAllows(pkg)
	for i := range allows {
		if allows[i].malformed != "" {
			findings = append(findings, Finding{
				Analyzer: AllowName,
				Pos:      pkg.Fset.Position(allows[i].pos),
				Message:  allows[i].malformed,
			})
		}
	}
	// used[directive index][analyzer name]: which directives suppressed at
	// least one diagnostic, for the stale-allow audit.
	used := make([]map[string]bool, len(allows))
	for _, a := range roster {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Path:      pkg.ImportPath,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("framework: analyzer %s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if di := suppressedBy(allows, a.Name, pos); di >= 0 {
				if used[di] == nil {
					used[di] = map[string]bool{}
				}
				used[di][a.Name] = true
				continue
			}
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Pos:      pos,
				Message:  d.Message,
			})
		}
	}
	for i := range allows {
		if allows[i].malformed != "" {
			continue
		}
		for _, name := range allows[i].analyzers {
			pos := pkg.Fset.Position(allows[i].pos)
			switch {
			case !rosterNames[name]:
				stale = append(stale, Finding{
					Analyzer: StaleAllowName,
					Pos:      pos,
					Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", name),
				})
			case !used[i][name]:
				stale = append(stale, Finding{
					Analyzer: StaleAllowName,
					Pos:      pos,
					Message: fmt.Sprintf("stale //lint:allow %s: no %s finding fires on line %d; delete the directive",
						name, name, allows[i].line),
				})
			}
		}
	}
	return findings, stale, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// suppressedBy returns the index of the well-formed allow directive for the
// analyzer covering the finding's line, or -1.
func suppressedBy(allows []allowDirective, analyzer string, pos token.Position) int {
	for i, d := range allows {
		if d.malformed != "" || d.file != pos.Filename || d.line != pos.Line {
			continue
		}
		for _, name := range d.analyzers {
			if name == analyzer {
				return i
			}
		}
	}
	return -1
}
