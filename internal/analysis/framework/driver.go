package framework

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one post-suppression diagnostic, positioned and attributed.
type Finding struct {
	Analyzer string
	Pos      Position
	Message  string
	// Fixes are the diagnostic's suggested fixes with positions resolved
	// to byte offsets, so -json can carry them and -fix can apply them
	// without a FileSet.
	Fixes []Fix `json:",omitempty"`
}

// Position is a token.Position that serializes compactly.
type Position struct {
	Filename string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"col"`
}

func positionOf(p token.Position) Position {
	return Position{Filename: p.Filename, Line: p.Line, Column: p.Column}
}

// Fix is one offset-resolved suggested fix.
type Fix struct {
	Message string `json:"message"`
	Edits   []Edit `json:"edits"`
}

// Edit replaces bytes [Start, End) of File with NewText.
type Edit struct {
	File    string `json:"file"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"newText"`
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
	// position.
	Findings []Finding
	// StaleAllows flags every well-formed //lint:allow directive that
	// suppressed no diagnostic of any analyzer it names (or names an
	// analyzer not in the roster). Reported separately so the default
	// mode stays byte-compatible and `-staleallow` can audit.
	StaleAllows []Finding
	// Analyzed counts the packages analyzed.
	Analyzed int
}

// RunAnalyzers applies every analyzer to every package, filters the
// diagnostics through //lint:allow directives, and returns the surviving
// findings sorted by position. Malformed or reasonless directives surface
// as findings under the reserved "lintallow" name, which no directive can
// suppress — every suppression must carry a justification.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	res, err := Run(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// Run is the full driver: it expands the analyzer roster through Requires,
// orders packages so dependencies are analyzed before dependents (facts
// flow forward), runs each analyzer with fact import/export wired up, and
// resolves suppressions. See RunAnalyzers for the suppression contract.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	roster, err := expandAnalyzers(analyzers)
	if err != nil {
		return nil, err
	}
	ordered, err := sortPackages(pkgs)
	if err != nil {
		return nil, err
	}
	rosterNames := map[string]bool{AllowName: true}
	for _, a := range roster {
		rosterNames[a.Name] = true
	}

	res := &Result{}
	facts := newFactStore()
	for _, pkg := range ordered {
		findings, stale, err := runPackage(pkg, roster, rosterNames, facts)
		if err != nil {
			return nil, err
		}
		res.Findings = append(res.Findings, findings...)
		res.StaleAllows = append(res.StaleAllows, stale...)
		res.Analyzed++
	}
	sortFindings(res.Findings)
	sortFindings(res.StaleAllows)
	return res, nil
}

// runPackage applies the full roster to one package and resolves its
// suppressions, returning the package's findings and stale allows.
func runPackage(pkg *Package, roster []*Analyzer, rosterNames map[string]bool, facts *factStore) (findings, stale []Finding, err error) {
	allows := parseAllows(pkg)
	for i := range allows {
		if allows[i].malformed != "" {
			findings = append(findings, Finding{
				Analyzer: AllowName,
				Pos:      positionOf(pkg.Fset.Position(allows[i].pos)),
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
			facts:     facts,
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
				Pos:      positionOf(pos),
				Message:  d.Message,
				Fixes:    resolveFixes(pkg, d.SuggestedFixes),
			})
		}
	}
	for i := range allows {
		if allows[i].malformed != "" {
			continue
		}
		for _, name := range allows[i].analyzers {
			pos := positionOf(pkg.Fset.Position(allows[i].pos))
			switch {
			case !rosterNames[name]:
				stale = append(stale, Finding{
					Analyzer: StaleAllowName,
					Pos:      pos,
					Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", name),
				})
			case used[i] == nil || !used[i][name]:
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

// resolveFixes converts a diagnostic's fixes from token positions to byte
// offsets. A fix whose edits land outside the package's files is dropped:
// better no fix than a corrupting one.
func resolveFixes(pkg *Package, fixes []SuggestedFix) []Fix {
	var out []Fix
	for _, sf := range fixes {
		fix := Fix{Message: sf.Message}
		ok := true
		for _, te := range sf.TextEdits {
			start := pkg.Fset.Position(te.Pos)
			end := pkg.Fset.Position(te.End)
			src, have := pkg.Sources[start.Filename]
			if !have || start.Filename != end.Filename ||
				start.Offset < 0 || end.Offset < start.Offset || end.Offset > len(src) {
				ok = false
				break
			}
			fix.Edits = append(fix.Edits, Edit{
				File:    start.Filename,
				Start:   start.Offset,
				End:     end.Offset,
				NewText: te.NewText,
			})
		}
		if ok && len(fix.Edits) > 0 {
			out = append(out, fix)
		}
	}
	return out
}

// expandAnalyzers returns the transitive closure of the roster through
// Requires in topological order (dependencies first), rejecting cycles.
func expandAnalyzers(analyzers []*Analyzer) ([]*Analyzer, error) {
	var out []*Analyzer
	state := map[*Analyzer]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("framework: analyzer dependency cycle through %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, dep := range a.Requires {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[a] = 2
		out = append(out, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortPackages orders packages so every package follows the packages it
// imports (facts flow dependency-first); ties break by import path so the
// order — and therefore finding order — is deterministic.
func sortPackages(pkgs []*Package) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })

	var out []*Package
	state := map[*Package]int{}
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("framework: import cycle through %s", p.ImportPath)
		case 2:
			return nil
		}
		state[p] = 1
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		out = append(out, p)
		return nil
	}
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
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
