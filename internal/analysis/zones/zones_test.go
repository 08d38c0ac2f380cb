package zones_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"depsense/internal/analysis/zones"
)

// exempt lists the internal packages deliberately outside every zone, each
// with the reason it needs none of the lint contracts. A new internal
// package must either join a zone map or be added here with a
// justification.
var exempt = map[string]string{
	"analysis":  "the linter itself: analyzers, framework, fixtures",
	"factfind":  "the result vocabulary and rank helpers every estimator shares; no map reduction, clock or RNG of its own",
	"grader":    "offline scoring harness; consumes estimator output, produces none of its own contracts",
	"mapsort":   "the sanctioned sorted-iteration helper; its one unordered range is sorted immediately (see package doc)",
	"plot":      "report-side SVG rendering of already-final results",
	"randutil":  "seed-derivation utilities; it is the randomness source the zones discipline, not a consumer",
	"runctx":    "cancellation/hook plumbing shared by every zone; no estimator state of its own",
	"tweetjson": "stateless wire-format decoding; determinism follows from its inputs",
}

// zoneMaps is every root declaration, by name for error messages.
func zoneMaps() map[string]map[string]bool {
	return map[string]map[string]bool{
		"Deterministic": zones.Deterministic,
		"Numeric":       zones.Numeric,
		"Clocked":       zones.Clocked,
	}
}

// TestEveryInternalPackageIsZonedOrExempt is the completeness audit: each
// package under internal/ appears in at least one zone map or in the
// exempt list above — nobody slips between the contracts unnoticed.
func TestEveryInternalPackageIsZonedOrExempt(t *testing.T) {
	internalDir := filepath.Join("..", "..")
	entries, err := os.ReadDir(internalDir)
	if err != nil {
		t.Fatal(err)
	}
	inSomeZone := map[string]bool{}
	for _, m := range zoneMaps() {
		for path := range m {
			inSomeZone[path] = true
		}
	}
	for _, e := range entries {
		if !e.IsDir() || !hasGoFiles(t, filepath.Join(internalDir, e.Name())) {
			continue
		}
		name := e.Name()
		path := "depsense/internal/" + name
		zoned := inSomeZone[path]
		_, isExempt := exempt[name]
		switch {
		case !zoned && !isExempt:
			t.Errorf("internal package %s is in no zone map and not in the exempt list; "+
				"add it to a zone in internal/analysis/zones or exempt it here with a reason", path)
		case zoned && isExempt:
			t.Errorf("internal package %s is both zoned and exempt; drop one", path)
		}
	}
}

// TestZoneMapsNameRealPackages keeps the root maps honest: every entry must
// correspond to a directory that exists and contains Go files, so renames
// and deletions cannot leave contracts dangling.
func TestZoneMapsNameRealPackages(t *testing.T) {
	repoRoot := filepath.Join("..", "..", "..")
	for mapName, m := range zoneMaps() {
		for path := range m {
			rel, ok := strings.CutPrefix(path, "depsense/")
			if !ok {
				t.Errorf("%s entry %q is not a depsense package path", mapName, path)
				continue
			}
			dir := filepath.Join(repoRoot, filepath.FromSlash(rel))
			if !hasGoFiles(t, dir) {
				t.Errorf("%s entry %q names a package with no Go files at %s", mapName, path, dir)
			}
		}
	}
}

func hasGoFiles(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
