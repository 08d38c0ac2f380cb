// Command depsenselint is the multichecker for this repository's custom
// static-analysis suite: the determinism and numeric-safety rules that
// ordinary vet cannot see. It loads the packages matched by its argument
// patterns (default ./...), runs every analyzer, and prints findings as
// file:line:col: analyzer: message.
//
// Modes beyond the default print:
//
//	-annotations render findings as GitHub Actions ::error commands
//	-staleallow  also audit //lint:allow directives that suppress nothing
//
// Exit status: 0 clean, 1 findings, 2 run error. A package load failure —
// a pattern that names a missing directory or matches no package included —
// is reported as a finding, so a mistyped pattern cannot pass by analyzing
// nothing.
//
// CI runs `go run ./cmd/depsenselint -staleallow -annotations ./...` (see
// .github/workflows/ci.yml); the invocation is fully offline — the suite is
// stdlib-only and type-checks against export data produced by the local go
// toolchain. Suppress a finding with //lint:allow <analyzer> <reason>; the
// reason is mandatory, and -staleallow flags directives that outlive their
// finding or name an analyzer outside the roster.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/maporder"
	"depsense/internal/analysis/probexpr"
	"depsense/internal/analysis/seedsource"
)

// analyzers is the full suite, in reporting-name order.
var analyzers = []*framework.Analyzer{
	maporder.Analyzer,
	probexpr.Analyzer,
	seedsource.Analyzer,
}

type options struct {
	dir         string
	annotations bool
	staleAllow  bool
}

func main() {
	var opts options
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.StringVar(&opts.dir, "C", ".", "directory to resolve package patterns in (module root)")
	flag.BoolVar(&opts.annotations, "annotations", false, "emit findings as GitHub Actions ::error annotations")
	flag.BoolVar(&opts.staleAllow, "staleallow", false, "also report //lint:allow directives that suppress nothing")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: depsenselint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the depsense determinism and numeric-safety analyzers.\n\n")
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

// runLint loads the packages, runs the suite, writes the findings to w, and
// returns their count, which gates the exit status.
func runLint(opts options, patterns []string, w io.Writer) (int, error) {
	pkgs, err := framework.Load(opts.dir, patterns...)
	if err != nil {
		fmt.Fprintln(w, err)
		return 1, nil
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
	for _, f := range findings {
		if opts.annotations {
			fmt.Fprintln(w, annotation(f))
		} else {
			fmt.Fprintln(w, f)
		}
	}
	return len(findings), nil
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
