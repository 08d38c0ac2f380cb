package depsense

// The CI workflow selects tests by name: `-run` patterns in the race steps
// and one `-fuzz` line per fuzz target in the fuzz smoke step. A renamed or
// deleted test leaves a pattern that selects nothing, and `go test` passes
// silently; a new fuzz target that no line names is never fuzzed. This test
// reads .github/workflows/ci.yml and fails in all three cases.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const ciWorkflow = ".github/workflows/ci.yml"

// testFuncRE matches the top-level Test and Fuzz functions of a gofmt'd
// test file.
var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// ciCommand is one `go test` invocation of the workflow.
type ciCommand struct {
	line     string
	run      string   // -run pattern, "" if none
	fuzz     string   // -fuzz pattern, "" if none
	packages []string // package arguments: "." or "./dir", "/..." kept
}

// parseCICommands extracts every `go test` command line of the workflow.
// Patterns and package paths in ci.yml contain no spaces, so a whitespace
// split with quote stripping is a faithful tokenizer.
func parseCICommands(t *testing.T, yml string) []ciCommand {
	t.Helper()
	var cmds []ciCommand
	for _, line := range strings.Split(yml, "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		c := ciCommand{line: strings.TrimSpace(line)}
		fields := strings.Fields(line[i+len("go test "):])
		for j := 0; j < len(fields); j++ {
			tok := strings.Trim(fields[j], `'"`)
			switch {
			case (tok == "-run" || tok == "-fuzz") && j+1 < len(fields):
				j++
				arg := strings.Trim(fields[j], `'"`)
				if tok == "-run" {
					c.run = arg
				} else {
					c.fuzz = arg
				}
			case tok == "." || strings.HasPrefix(tok, "./"):
				c.packages = append(c.packages, tok)
			}
		}
		if len(c.packages) == 0 {
			t.Fatalf("%s: no package arguments in %q", ciWorkflow, c.line)
		}
		cmds = append(cmds, c)
	}
	return cmds
}

// packageDirs resolves package arguments to directories: "./dir/..." walks
// every directory below dir, skipping testdata and directories whose names
// start with "." or "_", as the go tool does.
func packageDirs(t *testing.T, args []string) []string {
	t.Helper()
	var dirs []string
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "/...")
		root = filepath.Clean(root)
		if !recursive {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if name := d.Name(); path != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: package %s: %v", ciWorkflow, arg, err)
		}
	}
	return dirs
}

// testFuncs returns the Test and Fuzz function names of dir's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// matching returns the names with the given prefix that re matches.
func matching(re *regexp.Regexp, names []string, prefix string) []string {
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, prefix) && re.MatchString(n) {
			out = append(out, n)
		}
	}
	return out
}

func TestCIWorkflowSelectsExistingTests(t *testing.T) {
	yml, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	fuzzed := map[string]bool{} // "dir FuzzName" covered by the fuzz smoke step
	for _, c := range parseCICommands(t, string(yml)) {
		var names []string
		dirs := packageDirs(t, c.packages)
		for _, dir := range dirs {
			names = append(names, testFuncs(t, dir)...)
		}
		if c.run != "" && c.run != "^$" {
			for _, alt := range strings.Split(c.run, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("%q: bad -run alternative %q: %v", c.line, alt, err)
				}
				if len(matching(re, names, "Test")) == 0 {
					t.Errorf("%q: -run alternative %q matches no Test function in %v", c.line, alt, c.packages)
				}
			}
		}
		if c.fuzz != "" {
			re, err := regexp.Compile(c.fuzz)
			if err != nil {
				t.Fatalf("%q: bad -fuzz pattern: %v", c.line, err)
			}
			// go test refuses to fuzz unless the pattern selects exactly
			// one target in exactly one package.
			got := matching(re, names, "Fuzz")
			if len(dirs) != 1 || len(got) != 1 {
				t.Errorf("%q: -fuzz %q matches %v in %v, want exactly one Fuzz function in one package", c.line, c.fuzz, got, c.packages)
				continue
			}
			fuzzed[dirs[0]+" "+got[0]] = true
		}
	}

	for _, dir := range packageDirs(t, []string{"./..."}) {
		for _, name := range testFuncs(t, dir) {
			if strings.HasPrefix(name, "Fuzz") && !fuzzed[dir+" "+name] {
				t.Errorf("%s (%s) is not run by the fuzz smoke step of %s", name, dir, ciWorkflow)
			}
		}
	}
}
