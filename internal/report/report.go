// Package report renders a fact-finding run as a self-contained HTML
// document: dataset summary, the ranked assertions with credibility bars,
// and (for the EM estimators) the most and least reliable sources with
// confidence intervals. It is the human-facing deliverable of the Apollo
// pipeline, suitable for attaching to an incident report.
package report

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/claims"
	"depsense/internal/core"
)

// Input collects everything the report shows.
type Input struct {
	// Title heads the document.
	Title string
	// Algorithm is the fact-finder's display name.
	Algorithm string
	// Pipeline is the run to render.
	Pipeline *apollo.Output
	// SourceNames optionally maps dense source ids to display names.
	SourceNames []string
	// GeneratedAt stamps the report; zero means Clock (and ultimately
	// time.Now).
	GeneratedAt time.Time
	// Clock supplies the timestamp when GeneratedAt is zero; nil means
	// time.Now. Tests inject a fixed clock so rendered reports are
	// byte-for-byte reproducible.
	Clock func() time.Time
	// MaxSources bounds the reliability table (default 15 most + 15 least
	// reliable).
	MaxSources int
}

type rankedRow struct {
	Rank      int
	Posterior float64
	Percent   int
	Text      string
	Claims    int
	Dependent int
}

type sourceRow struct {
	Name       string
	A, B       float64
	CILo, CIHi float64
	Claims     int
}

type reportData struct {
	Title       string
	Algorithm   string
	GeneratedAt string
	Summary     claims.Summary
	Converged   bool
	Iterations  int
	Ranked      []rankedRow
	TopSources  []sourceRow
	LowSources  []sourceRow
	HasSources  bool
}

// Render writes the HTML document.
func Render(w io.Writer, in Input) error {
	if in.Pipeline == nil {
		return fmt.Errorf("report: nil pipeline output")
	}
	out := in.Pipeline
	data := reportData{
		Title:      in.Title,
		Algorithm:  in.Algorithm,
		Summary:    out.Dataset.Summarize(),
		Converged:  out.Result.Converged,
		Iterations: out.Result.Iterations,
	}
	if data.Title == "" {
		data.Title = "Fact-finding report"
	}
	ts := in.GeneratedAt
	if ts.IsZero() {
		clock := in.Clock
		if clock == nil {
			clock = time.Now // the injectable default, not a bare read
		}
		ts = clock()
	}
	data.GeneratedAt = ts.UTC().Format(time.RFC3339)

	for rank, c := range out.Ranked {
		p := out.Result.Posterior[c]
		data.Ranked = append(data.Ranked, rankedRow{
			Rank:      rank + 1,
			Posterior: p,
			Percent:   int(p*100 + 0.5),
			Text:      out.RepresentativeText[c],
			Claims:    len(out.Dataset.Claimants(c)),
			Dependent: out.Dataset.DependentClaimCount(c),
		})
	}

	if params := out.Result.Params; params != nil {
		maxSources := in.MaxSources
		if maxSources <= 0 {
			maxSources = 15
		}
		ci, err := core.ConfidenceIntervals(out.Dataset, params, out.Result.Posterior, 0.95)
		if err != nil {
			return fmt.Errorf("report: confidence intervals: %w", err)
		}
		rows := make([]sourceRow, 0, out.Dataset.N())
		for i, s := range params.Sources {
			nClaims := len(out.Dataset.ClaimsD0(i)) + len(out.Dataset.ClaimsD1(i))
			if nClaims == 0 {
				continue
			}
			name := fmt.Sprintf("source %d", i)
			if i < len(in.SourceNames) && in.SourceNames[i] != "" {
				name = in.SourceNames[i]
			}
			rows = append(rows, sourceRow{
				Name:   name,
				A:      s.A,
				B:      s.B,
				CILo:   ci.Sources[i].A.Lo,
				CIHi:   ci.Sources[i].A.Hi,
				Claims: nClaims,
			})
		}
		sort.SliceStable(rows, func(a, b int) bool { return rows[a].A > rows[b].A })
		if len(rows) > maxSources {
			data.TopSources = rows[:maxSources]
			low := rows[len(rows)-maxSources:]
			data.LowSources = make([]sourceRow, len(low))
			copy(data.LowSources, low)
		} else {
			data.TopSources = rows
		}
		data.HasSources = len(rows) > 0
	}
	return reportTemplate.Execute(w, data)
}

var reportTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.9rem; }
th, td { text-align: left; padding: 0.35rem 0.6rem; border-bottom: 1px solid #e2e2e2; }
th { background: #f5f5f5; }
.meta { color: #555; font-size: 0.85rem; }
.bar { background: #e8eefc; height: 0.8rem; border-radius: 2px; }
.bar > div { background: #1f77b4; height: 100%; border-radius: 2px; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="meta">algorithm: {{.Algorithm}} · generated {{.GeneratedAt}} ·
{{.Summary.Sources}} sources · {{.Summary.Assertions}} assertions ·
{{.Summary.TotalClaims}} claims ({{.Summary.DependentClaims}} dependent) ·
converged: {{.Converged}} after {{.Iterations}} iterations</p>

<h2>Most credible assertions</h2>
<table>
<tr><th>#</th><th>credibility</th><th></th><th>assertion</th><th class="num">claims</th><th class="num">dependent</th></tr>
{{range .Ranked}}
<tr>
  <td>{{.Rank}}</td>
  <td class="num">{{printf "%.3f" .Posterior}}</td>
  <td style="width:8rem"><div class="bar"><div style="width:{{.Percent}}%"></div></div></td>
  <td>{{.Text}}</td>
  <td class="num">{{.Claims}}</td>
  <td class="num">{{.Dependent}}</td>
</tr>
{{end}}
</table>

{{if .HasSources}}
<h2>Most reliable sources (estimated a&#770;, 95% CI)</h2>
<table>
<tr><th>source</th><th class="num">a&#770;</th><th class="num">95% CI</th><th class="num">b&#770;</th><th class="num">claims</th></tr>
{{range .TopSources}}
<tr><td>{{.Name}}</td><td class="num">{{printf "%.3f" .A}}</td>
<td class="num">[{{printf "%.3f" .CILo}}, {{printf "%.3f" .CIHi}}]</td>
<td class="num">{{printf "%.3f" .B}}</td><td class="num">{{.Claims}}</td></tr>
{{end}}
</table>
{{if .LowSources}}
<h2>Least reliable sources</h2>
<table>
<tr><th>source</th><th class="num">a&#770;</th><th class="num">95% CI</th><th class="num">b&#770;</th><th class="num">claims</th></tr>
{{range .LowSources}}
<tr><td>{{.Name}}</td><td class="num">{{printf "%.3f" .A}}</td>
<td class="num">[{{printf "%.3f" .CILo}}, {{printf "%.3f" .CIHi}}]</td>
<td class="num">{{printf "%.3f" .B}}</td><td class="num">{{.Claims}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}
</body>
</html>
`))
