package maporder_test

import (
	"strings"
	"testing"

	"depsense/internal/analysis/analysistest"
	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/maporder"
)

func TestDeterministicZone(t *testing.T) {
	analysistest.RunPath(t, maporder.Analyzer, "testdata/det", "depsense/internal/core")
}

// TestNonDeterministicZone re-analyzes the same fixture outside the
// deterministic zones: nothing may fire.
func TestNonDeterministicZone(t *testing.T) {
	findings := analysistest.Findings(t, maporder.Analyzer, "testdata/det", "depsense/internal/plot")
	if len(findings) != 0 {
		t.Errorf("maporder fired outside deterministic zones: %v", findings)
	}
}

// TestReasonlessAllow verifies that a //lint:allow without a reason is void
// (the maporder finding survives) and is itself reported under lintallow.
func TestReasonlessAllow(t *testing.T) {
	findings := analysistest.Findings(t, maporder.Analyzer, "testdata/badallow", "depsense/internal/core")
	var sawMap, sawAllow bool
	for _, f := range findings {
		switch {
		case f.Analyzer == maporder.Analyzer.Name && strings.Contains(f.Message, "range over map"):
			sawMap = true
		case f.Analyzer == framework.AllowName && strings.Contains(f.Message, "must carry a reason"):
			sawAllow = true
		}
	}
	if !sawMap {
		t.Errorf("reasonless allow suppressed the maporder finding; findings: %v", findings)
	}
	if !sawAllow {
		t.Errorf("reasonless allow not reported under %s; findings: %v", framework.AllowName, findings)
	}
}
