package baselines

import (
	"testing"

	"depsense/internal/core"
	"depsense/internal/factfind"
)

// TestLineupNamesMatchFinders: the table's canonical names must be exactly
// what each constructed finder reports — the by-name lookup and the
// advertised name list both depend on it.
func TestLineupNamesMatchFinders(t *testing.T) {
	names := ExtendedNames()
	if len(names) != len(lineup) {
		t.Fatalf("%d names, %d lineup entries", len(names), len(lineup))
	}
	for i, e := range lineup {
		if f := e.make(core.Options{}); f.Name() != names[i] {
			t.Errorf("lineup[%d]: name %q but finder reports %q", i, names[i], f.Name())
		}
	}
	if len(All()) != allCount {
		t.Fatalf("All length %d, want %d", len(All()), allCount)
	}
}

// extended constructs the whole nine-algorithm roster through the by-name
// lookup, in lineup order.
func extended() []factfind.FactFinder {
	var out []factfind.FactFinder
	for _, name := range ExtendedNames() {
		out = append(out, ExtendedByName(name, core.Options{}))
	}
	return out
}

func TestExtendedByName(t *testing.T) {
	for _, name := range ExtendedNames() {
		f := ExtendedByName(name, core.Options{})
		if f == nil {
			t.Fatalf("ExtendedByName(%q) = nil", name)
		}
		if f.Name() != name {
			t.Fatalf("ExtendedByName(%q).Name() = %q", name, f.Name())
		}
	}
	// Case-insensitive, like the HTTP API's historical matching.
	if f := ExtendedByName("em-ext", core.Options{}); f == nil || f.Name() != "EM-Ext" {
		t.Fatalf("case-insensitive lookup failed: %v", f)
	}
	if f := ExtendedByName("Oracle", core.Options{}); f != nil {
		t.Fatalf("unknown name resolved to %v", f)
	}
}

// TestExtendedByNameAllocs locks in the point of the per-request fix: one
// lookup constructs one finder, not the whole nine-estimator roster.
func TestExtendedByNameAllocs(t *testing.T) {
	opts := core.Options{Workers: 4}
	allocs := testing.AllocsPerRun(200, func() {
		if ExtendedByName("EM-Ext", opts) == nil {
			t.Fatal("lookup failed")
		}
	})
	if allocs > 1 {
		t.Fatalf("ExtendedByName allocates %.1f objects per lookup, want <= 1", allocs)
	}
}

// BenchmarkExtendedByName measures one by-name lookup, which constructs
// only the selected finder.
func BenchmarkExtendedByName(b *testing.B) {
	opts := core.Options{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ExtendedByName("Truth-Finder", opts) == nil {
			b.Fatal("lookup failed")
		}
	}
}
