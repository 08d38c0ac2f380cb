package eval

import (
	"math"
	"strings"
	"testing"
)

func TestTableIExact(t *testing.T) {
	r, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Result.Err-r.PaperErr) > 1e-8 {
		t.Fatalf("Table I Err = %.8f, want %.8f", r.Result.Err, r.PaperErr)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.26980433") {
		t.Fatalf("render missing value:\n%s", sb.String())
	}
}

func TestFig3Quick(t *testing.T) {
	cfg := QuickConfig()
	cfg.BoundRuns = 2
	s, err := Fig3BoundVsSources(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 5 {
		t.Fatalf("points = %d", len(s.Points))
	}
	for _, p := range s.Points {
		if p.Exact <= 0 || p.Exact >= 0.5 || p.Approx <= 0 || p.Approx >= 0.5 {
			t.Fatalf("implausible bounds at n=%g: %+v", p.X, p)
		}
	}
	// Approximation quality: the whole point of Figs. 3-5.
	if s.MaxDiff > 0.05 {
		t.Fatalf("max |exact-approx| = %v", s.MaxDiff)
	}
	var sb strings.Builder
	if err := s.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig 3") {
		t.Fatal("render missing label")
	}
}

func TestFig4AndFig5Quick(t *testing.T) {
	cfg := QuickConfig()
	cfg.BoundRuns = 1
	s4, err := Fig4BoundVsTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s4.Points) != 11 {
		t.Fatalf("fig4 points = %d", len(s4.Points))
	}
	s5, err := Fig5BoundVsOdds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s5.Points) != 10 {
		t.Fatalf("fig5 points = %d", len(s5.Points))
	}
	if s5.Points[0].X != 1.1 || s5.Points[9].X != 2.0 {
		t.Fatalf("fig5 x range: %v..%v", s5.Points[0].X, s5.Points[9].X)
	}
}

func TestFig6TimingShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.BoundRuns = 1
	s, err := Fig3BoundVsSources(cfg)
	if err != nil {
		t.Fatal(err)
	}
	timing := Fig6Timing(s)
	first := timing.Points[0]
	last := timing.Points[len(timing.Points)-1]
	// The exact bound's cost must grow much faster than the approximate
	// bound's — the message of Fig. 6.
	exactGrowth := last.ExactSeconds / first.ExactSeconds
	approxGrowth := last.ApproxSeconds / first.ApproxSeconds
	if exactGrowth < 4*approxGrowth {
		t.Fatalf("exact growth %.1fx vs approx %.1fx: exponential separation missing",
			exactGrowth, approxGrowth)
	}
}

func TestFig7Quick(t *testing.T) {
	cfg := QuickConfig()
	cfg.EstimatorRuns = 4
	cfg.OptimalRuns = 2
	s, err := Fig7EstimatorVsSources(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 7 {
		t.Fatalf("points = %d", len(s.Points))
	}
	for _, p := range s.Points {
		opt := p.ByAlg["Optimal"].Accuracy
		for _, name := range []string{"EM-Ext", "EM", "EM-Social"} {
			acc := p.ByAlg[name].Accuracy
			if acc <= 0.3 || acc > 1 {
				t.Fatalf("%s accuracy %v at n=%g", name, acc, p.X)
			}
			// No estimator may beat the bound by more than sampling noise.
			if acc > opt+0.1 {
				t.Fatalf("%s (%v) above optimal (%v) at n=%g", name, acc, opt, p.X)
			}
		}
	}
	var sb strings.Builder
	if err := s.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "EM-Ext") {
		t.Fatal("render missing algorithms")
	}
}

func TestEmpiricalQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.EmpiricalScale = 40
	res, err := Empirical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Scores) != len(EmpiricalAlgNames) {
			t.Fatalf("%s: %d scores", row.Scenario.Name, len(row.Scores))
		}
		for name, s := range row.Scores {
			if acc := s.Accuracy(); acc < 0 || acc > 1 {
				t.Fatalf("%s/%s accuracy %v", row.Scenario.Name, name, acc)
			}
		}
	}
	var sb strings.Builder
	if err := res.RenderTableIII(&sb); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderFig11(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Ukraine", "Paris Attack", "Truth-Finder"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestChartsRender(t *testing.T) {
	cfg := QuickConfig()
	cfg.BoundRuns = 1
	bs, err := Fig4BoundVsTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := bs.Chart().RenderSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "approx (Gibbs)") {
		t.Fatal("bound chart missing series")
	}
	sb.Reset()
	if err := bs.TimingChart().RenderSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "seconds per run") {
		t.Fatal("timing chart missing axis label")
	}

	cfg.EstimatorRuns = 2
	cfg.OptimalRuns = 1
	es, err := Fig9EstimatorVsTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := es.Chart().RenderSVG(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EM-Ext", "Optimal"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("estimator chart missing %q", want)
		}
	}
}

func TestCSVExport(t *testing.T) {
	cfg := QuickConfig()
	cfg.BoundRuns = 1
	bs, err := Fig4BoundVsTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := bs.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(bs.Points)+1 {
		t.Fatalf("%d CSV lines for %d points", len(lines), len(bs.Points))
	}
	if !strings.HasPrefix(lines[0], "tau,exact,approx") {
		t.Fatalf("header: %s", lines[0])
	}

	cfg.EstimatorRuns = 2
	es, err := ExtDepthEstimators(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := es.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "EM-Ext_acc") {
		t.Fatal("estimator CSV header broken")
	}
}

func TestExtSybilQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.EmpiricalScale = 40
	cfg.EmpiricalSeeds = 1
	res, err := ExtSybilAttack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 || res.Points[0].Sybils != 0 {
		t.Fatalf("points: %+v", res.Points)
	}
	for _, p := range res.Points {
		for _, a := range EmpiricalAlgNames {
			if acc := p.Scores[a].Accuracy(); acc < 0 || acc > 1 {
				t.Fatalf("sybils=%d %s accuracy %v", p.Sybils, a, acc)
			}
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sybil") {
		t.Fatal("render missing label")
	}
}

// TestParallelSweepMatchesSerial: the worker pool must not change the
// aggregated numbers.
func TestParallelSweepMatchesSerial(t *testing.T) {
	cfg := QuickConfig()
	cfg.EstimatorRuns = 4
	cfg.OptimalRuns = 1
	cfg.Workers = 1
	serial, err := Fig9EstimatorVsTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Fig9EstimatorVsTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range serial.Points {
		for _, a := range []string{"EM-Ext", "EM", "EM-Social", "Optimal"} {
			if serial.Points[k].ByAlg[a] != par.Points[k].ByAlg[a] {
				t.Fatalf("point %d alg %s differs between serial and parallel", k, a)
			}
		}
	}
}

func TestEmpiricalChartAndCSV(t *testing.T) {
	cfg := QuickConfig()
	cfg.EmpiricalScale = 60
	res, err := Empirical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Chart().RenderSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Truth-Finder") {
		t.Fatal("empirical chart missing series")
	}
	sb.Reset()
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	// header + 5 datasets × 7 algorithms.
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+5*7 {
		t.Fatalf("%d CSV lines", len(lines))
	}
}

func TestFig8AndFig10SweepDefinitions(t *testing.T) {
	cfg := QuickConfig()
	cfg.EstimatorRuns = 1
	cfg.OptimalRuns = 0
	s8, err := Fig8EstimatorVsAssertions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s8.Points) != 10 || s8.Points[0].X != 10 || s8.Points[9].X != 100 {
		t.Fatalf("fig8 sweep: %+v", s8.Points)
	}
	s10, err := Fig10EstimatorVsOdds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s10.Points) != 10 || s10.Points[0].X != 1.1 {
		t.Fatalf("fig10 sweep: %+v", s10.Points)
	}
}

func TestConfigNormalization(t *testing.T) {
	var zero Config
	n := zero.normalized()
	d := DefaultConfig()
	if n.BoundRuns != d.BoundRuns || n.EstimatorRuns != d.EstimatorRuns ||
		n.OptimalRuns != d.OptimalRuns || n.GibbsSweeps != d.GibbsSweeps ||
		n.TopK != d.TopK || n.EmpiricalScale != 1 || n.EmpiricalSeeds != 3 {
		t.Fatalf("normalized zero config: %+v", n)
	}
}
