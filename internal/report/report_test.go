package report

import (
	"strings"
	"testing"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

func pipelineOutput(t *testing.T) (*apollo.Output, string) {
	t.Helper()
	sc := twittersim.Small("Kirkuk", 40)
	w, err := twittersim.Generate(sc, randutil.New(4))
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]apollo.Message, len(w.Tweets))
	for i, tw := range w.Tweets {
		msgs[i] = apollo.Message{Source: tw.Source, Time: int64(tw.ID), Text: tw.Text}
	}
	out, err := apollo.Run(apollo.Input{
		NumSources: sc.Sources,
		Messages:   msgs,
		Graph:      w.Graph,
	}, &core.EMExt{}, apollo.Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	return out, "EM-Ext"
}

func TestRenderFullReport(t *testing.T) {
	out, alg := pipelineOutput(t)
	var sb strings.Builder
	err := Render(&sb, Input{
		Title:       "Kirkuk incident",
		Algorithm:   alg,
		Pipeline:    out,
		GeneratedAt: time.Date(2015, 3, 10, 12, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	html := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Kirkuk incident", "EM-Ext",
		"Most credible assertions", "Most reliable sources",
		"2015-03-10T12:00:00Z", "95% CI",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if got := strings.Count(html, "<tr>"); got < 11 {
		t.Fatalf("only %d table rows", got)
	}
}

func TestRenderEscapesAssertionText(t *testing.T) {
	// A malicious tweet must not inject markup into the report.
	g := depgraph.NewGraph(2)
	out, err := apollo.Run(apollo.Input{
		NumSources: 2,
		Graph:      g,
		Messages: []apollo.Message{
			{Source: 0, Time: 1, Text: `<script>alert(1)</script> attack at plaza9 n3`},
			{Source: 1, Time: 2, Text: `quiet day near campus1 n7`},
		},
	}, &baselines.Voting{}, apollo.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, Input{Pipeline: out, Algorithm: "Voting"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "<script>") {
		t.Fatal("unescaped script tag in report")
	}
}

func TestRenderHeuristicWithoutParams(t *testing.T) {
	// Heuristic results carry no parameter estimates; the report must omit
	// the source tables rather than fail.
	g := depgraph.NewGraph(1)
	out, err := apollo.Run(apollo.Input{
		NumSources: 1,
		Graph:      g,
		Messages:   []apollo.Message{{Source: 0, Time: 1, Text: "fire near plaza2 n1"}},
	}, &baselines.Voting{}, apollo.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, Input{Pipeline: out, Algorithm: "Voting"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Most reliable sources") {
		t.Fatal("source table rendered without parameters")
	}
}

func TestRenderNilPipeline(t *testing.T) {
	var sb strings.Builder
	if err := Render(&sb, Input{}); err == nil {
		t.Fatal("nil pipeline accepted")
	}
}

func TestRenderSourceNames(t *testing.T) {
	out, _ := pipelineOutput(t)
	names := make([]string, out.Dataset.N())
	for i := range names {
		names[i] = "user_" + string(rune('a'+i%26))
	}
	var sb strings.Builder
	if err := Render(&sb, Input{Pipeline: out, Algorithm: "EM-Ext", SourceNames: names}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "user_") {
		t.Fatal("source names not used")
	}
}

// TestRenderInjectedClock verifies the injectable clock: with GeneratedAt
// zero, the timestamp must come from Clock, making two renders of the same
// run byte-for-byte identical.
func TestRenderInjectedClock(t *testing.T) {
	out, alg := pipelineOutput(t)
	fixed := time.Date(2016, 6, 27, 9, 30, 0, 0, time.UTC)
	render := func() string {
		var sb strings.Builder
		if err := Render(&sb, Input{
			Algorithm: alg,
			Pipeline:  out,
			Clock:     func() time.Time { return fixed },
		}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	if !strings.Contains(first, "2016-06-27T09:30:00Z") {
		t.Fatalf("report did not use the injected clock")
	}
	if second := render(); second != first {
		t.Fatalf("two renders with a fixed clock differ")
	}
}

// TestRenderGeneratedAtBeatsClock: an explicit GeneratedAt wins over the
// injected clock.
func TestRenderGeneratedAtBeatsClock(t *testing.T) {
	out, alg := pipelineOutput(t)
	var sb strings.Builder
	err := Render(&sb, Input{
		Algorithm:   alg,
		Pipeline:    out,
		GeneratedAt: time.Date(2015, 3, 10, 12, 0, 0, 0, time.UTC),
		Clock:       func() time.Time { return time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2015-03-10T12:00:00Z") {
		t.Fatalf("explicit GeneratedAt was not honored")
	}
}
