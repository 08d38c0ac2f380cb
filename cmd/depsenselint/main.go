// Command depsenselint is the multichecker for this repository's custom
// static-analysis suite: the determinism, numeric-safety, concurrency, and
// memory-contract rules that ordinary vet cannot see. It loads the packages
// matched by its argument patterns (default ./...), runs every analyzer
// (facts flow dependency-first, so cross-package contracts propagate), and
// prints findings as file:line:col: analyzer: message.
//
// Modes beyond the default print:
//
//	-fix         apply each finding's first suggested fix in place
//	-json        machine-readable output (findings, stale allows, package count)
//	-annotations render findings as GitHub Actions ::error commands
//	-staleallow  also audit //lint:allow directives that suppress nothing
//
// Exit status: 0 clean, 1 findings, 2 load/run error.
//
// CI runs `go run ./cmd/depsenselint -staleallow -annotations ./...` (see
// .github/workflows/ci.yml); the invocation is fully offline — the suite is
// stdlib-only and type-checks against export data produced by the local go
// toolchain. Suppress a finding with //lint:allow <analyzer> <reason>; the
// reason is mandatory, and -staleallow flags directives that outlive their
// finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"depsense/internal/analysis/chandisc"
	"depsense/internal/analysis/ctxloop"
	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/goroleak"
	"depsense/internal/analysis/maporder"
	"depsense/internal/analysis/mutexguard"
	"depsense/internal/analysis/probexpr"
	"depsense/internal/analysis/scratchalias"
	"depsense/internal/analysis/seedsource"
)

// analyzers is the full suite, in reporting-name order. zonefacts joins the
// roster implicitly through Requires.
var analyzers = []*framework.Analyzer{
	chandisc.Analyzer,
	ctxloop.Analyzer,
	goroleak.Analyzer,
	maporder.Analyzer,
	mutexguard.Analyzer,
	probexpr.Analyzer,
	scratchalias.Analyzer,
	seedsource.Analyzer,
}

type options struct {
	dir         string
	fix         bool
	jsonOut     bool
	annotations bool
	staleAllow  bool
}

func main() {
	var opts options
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.StringVar(&opts.dir, "C", ".", "directory to resolve package patterns in (module root)")
	flag.BoolVar(&opts.fix, "fix", false, "apply each finding's first suggested fix to the source files")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit findings as JSON instead of text")
	flag.BoolVar(&opts.annotations, "annotations", false, "emit findings as GitHub Actions ::error annotations")
	flag.BoolVar(&opts.staleAllow, "staleallow", false, "also report //lint:allow directives that suppress nothing")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: depsenselint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the depsense determinism/concurrency/memory-contract analyzers.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := runLint(opts, patterns, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "depsenselint:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// jsonOutput is the -json document.
type jsonOutput struct {
	Findings    []framework.Finding `json:"findings"`
	StaleAllows []framework.Finding `json:"staleAllows,omitempty"`
	Analyzed    int                 `json:"analyzed"`
	Fixed       int                 `json:"fixed,omitempty"`
}

// runLint loads the packages, runs the suite in the requested mode, writes
// output to w, and returns the count of findings that gate the exit status.
func runLint(opts options, patterns []string, w io.Writer) (int, error) {
	pkgs, err := framework.Load(opts.dir, patterns...)
	if err != nil {
		return 0, err
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			// Type errors would make analysis unreliable; surface them.
			return 0, fmt.Errorf("type-checking %s: %v", p.ImportPath, terr)
		}
	}

	res, err := framework.Run(pkgs, analyzers)
	if err != nil {
		return 0, err
	}

	findings := res.Findings
	if opts.staleAllow {
		findings = append(findings, res.StaleAllows...)
	}

	fixed := 0
	if opts.fix {
		var remaining []framework.Finding
		var fixable []framework.Finding
		for _, f := range findings {
			if len(f.Fixes) > 0 {
				fixable = append(fixable, f)
			} else {
				remaining = append(remaining, f)
			}
		}
		if len(fixable) > 0 {
			if err := applyToDisk(fixable, pkgs); err != nil {
				return 0, err
			}
			fixed = len(fixable)
		}
		findings = remaining
	}

	switch {
	case opts.jsonOut:
		out := jsonOutput{Findings: findings, Analyzed: res.Analyzed, Fixed: fixed}
		if opts.staleAllow {
			// Already merged above for the exit status; split back out so
			// consumers can tell contract findings from audit findings.
			out.Findings, out.StaleAllows = splitStale(findings)
		}
		if out.Findings == nil {
			out.Findings = []framework.Finding{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return 0, err
		}
	case opts.annotations:
		for _, f := range findings {
			fmt.Fprintln(w, annotation(f))
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
		if fixed > 0 {
			fmt.Fprintf(w, "depsenselint: applied %d suggested fix(es)\n", fixed)
		}
	}
	return len(findings), nil
}

// splitStale separates staleallow audit findings from contract findings.
func splitStale(findings []framework.Finding) (rest, stale []framework.Finding) {
	for _, f := range findings {
		if f.Analyzer == framework.StaleAllowName {
			stale = append(stale, f)
		} else {
			rest = append(rest, f)
		}
	}
	return rest, stale
}

// applyToDisk applies each finding's first suggested fix to the source
// files in place.
func applyToDisk(findings []framework.Finding, pkgs []*framework.Package) error {
	sources := map[string][]byte{}
	for _, p := range pkgs {
		for path, src := range p.Sources {
			sources[path] = src
		}
	}
	fixedFiles, err := framework.ApplyFixes(findings, sources)
	if err != nil {
		return fmt.Errorf("applying fixes: %v", err)
	}
	paths := make([]string, 0, len(fixedFiles))
	for path := range fixedFiles {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, fixedFiles[path], st.Mode().Perm()); err != nil {
			return err
		}
	}
	return nil
}

// annotation renders a finding as a GitHub Actions workflow command, so
// findings attach to the diff in pull requests.
func annotation(f framework.Finding) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=depsenselint/%s::%s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, escapeAnnotation(f.Message))
}

// escapeAnnotation applies the workflow-command data escaping rules.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
