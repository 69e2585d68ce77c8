package experiment

import (
	"strings"
	"testing"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/golden"
	"dirigent/internal/stats"
)

func TestTable1(t *testing.T) {
	out := Table1()
	for _, name := range []string{"bodytrack", "ferret", "fluidanimate", "raytrace", "streamcluster",
		"bwaves", "pca", "rs", "namd", "soplex", "libquantum", "lbm"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
}

func TestFGOverview(t *testing.T) {
	r := smallRunner()
	rows, err := r.FGOverview()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Fig. 4 shape: contention slows execution and raises MPKI.
		if row.ContendSec <= row.AloneSec {
			t.Errorf("%s: contended %.3f <= alone %.3f", row.Bench, row.ContendSec, row.AloneSec)
		}
		if row.ContendMPKI <= row.AloneMPKI {
			t.Errorf("%s: contended MPKI %.2f <= alone %.2f", row.Bench, row.ContendMPKI, row.AloneMPKI)
		}
		if row.AloneSec < 0.3 || row.AloneSec > 2.2 {
			t.Errorf("%s: alone time %.3f outside the paper's 0.5-1.6s band (with slack)", row.Bench, row.AloneSec)
		}
	}
	if out := RenderFGOverview(rows); !strings.Contains(out, "Fig. 4") {
		t.Error("render missing title")
	}
	golden.Check(t, "testdata/fg_overview.json", rows)
}

func TestBGOverview(t *testing.T) {
	r := smallRunner()
	rows, err := r.BGOverview()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 BG workloads", len(rows))
	}
	for i, row := range rows {
		if row.TotalMPKFGI <= 0 {
			t.Errorf("%s: MPKFGI %g", row.Workload, row.TotalMPKFGI)
		}
		if row.FGShare <= 0 || row.FGShare > 1 {
			t.Errorf("%s: FG share %g", row.Workload, row.FGShare)
		}
		if i > 0 && rows[i-1].TotalMPKFGI > row.TotalMPKFGI {
			t.Error("rows should be sorted ascending")
		}
	}
	// Fig. 5 shape: the spectrum must be wide (max over min > 3).
	if rows[len(rows)-1].TotalMPKFGI < 3*rows[0].TotalMPKFGI {
		t.Errorf("BG spectrum too narrow: %g .. %g", rows[0].TotalMPKFGI, rows[len(rows)-1].TotalMPKFGI)
	}
	if out := RenderBGOverview(rows); !strings.Contains(out, "Fig. 5") {
		t.Error("render missing title")
	}
	golden.Check(t, "testdata/bg_overview.json", rows)
}

func TestPredictionProbe(t *testing.T) {
	r := smallRunner()
	mix := Mix{Name: "raytrace rs", FG: []string{"raytrace"}, BG: repeat("rs", 5)}
	res, err := r.PredictionProbe(mix, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 20 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Fig. 6/7 shape: midpoint predictions track actuals closely.
	if res.MeanError > 0.08 {
		t.Errorf("mean error = %.1f%%, want < 8%%", res.MeanError*100)
	}
	if res.NormalizedStd <= 0 {
		t.Error("normalized std should be positive under contention")
	}
	out := RenderPredictionTrace(res)
	if !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "mean error") {
		t.Error("trace render incomplete")
	}
	// Errors should generally be far smaller than the execution-time
	// spread (the paper's Fig. 7 observation).
	if res.MeanError > res.NormalizedStd {
		t.Errorf("prediction error %.3f exceeds execution spread %.3f", res.MeanError, res.NormalizedStd)
	}
}

func TestPredictionProbeInvalid(t *testing.T) {
	r := smallRunner()
	if _, err := r.PredictionProbe(Mix{Name: "bad"}, 5, 0); err == nil {
		t.Error("invalid mix should error")
	}
	// The probe runs on the runner's machine class: six tasks do not fit
	// quad-low's four cores.
	r.MachineClass = "quad-low"
	wide := Mix{Name: "raytrace rs", FG: []string{"raytrace"}, BG: repeat("rs", 5)}
	if _, err := r.PredictionProbe(wide, 5, 0); err == nil {
		t.Error("a six-task mix on quad-low should error")
	}
}

// TestPredictorAblation checks the ablation's settings, and that its
// default setting is the plain PredictionProbe on the same mix.
func TestPredictorAblation(t *testing.T) {
	r := smallRunner()
	rows, err := r.PredictorAblation(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r.PredictionProbe(Mix{Name: "ferret bwaves", FG: []string{"ferret"}, BG: repeat("bwaves", 5)}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := []AblationRow{{0.1, 5 * ms, 238, 0}, {0.2, 5 * ms, 238, 0}, {0.3, 5 * ms, 238, 0}, {0.2, 10 * ms, 119, 0}, {0.2, 20 * ms, 60, 0}}
	if len(rows) != len(want) || rows[1].MeanError != plain.MeanError {
		t.Fatalf("rows %+v; default-setting error want %g", rows, plain.MeanError)
	}
	for i, row := range rows {
		if row.MeanError <= 0 || row.MeanError > 0.05 {
			t.Errorf("row %d: mean error %g", i, row.MeanError)
		}
		if row.MeanError = 0; row != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
	}
}

func TestPartitionSweep(t *testing.T) {
	r := smallRunner()
	// The paper's Fig. 8 mix: streamcluster FG, PCA BG.
	mix := Mix{Name: "streamcluster pca", FG: []string{"streamcluster"}, BG: repeat("pca", 5)}
	res, err := r.PartitionSweep(mix, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ways) != 11 {
		t.Fatalf("sweep points = %d", len(res.Ways))
	}
	// Shape: more FG ways must not hurt much — the curve decreases then
	// flattens; the first point (2 ways) should be the worst.
	if res.MeanSec[0] < res.MeanSec[len(res.MeanSec)-1] {
		t.Errorf("2-way partition should be slowest: %v", res.MeanSec)
	}
	if res.Knee < 2 || res.Knee > 12 {
		t.Errorf("knee = %d", res.Knee)
	}
	// Dirigent converges to a nontrivial partition for this mix.
	if res.DirigentWays < 2 {
		t.Errorf("Dirigent ways = %d", res.DirigentWays)
	}
	out := RenderPartitionSweep(res)
	if !strings.Contains(out, "Fig. 8") || !strings.Contains(out, "knee") {
		t.Error("render incomplete")
	}
	golden.Check(t, "testdata/partition_sweep.json", res)
}

// fabricatedResults builds two MixResults with known numbers to test the
// aggregation math exactly.
func fabricatedResults() []*MixResult {
	mk := func(name string, base, dir float64) *MixResult {
		mkRun := func(cfg config.Name, succ, bgRate, std float64) *RunResult {
			return &RunResult{
				Mix:         Mix{Name: name},
				Config:      cfg,
				Streams:     []StreamResult{{SuccessRate: succ, Summary: stats.Summary{Std: std, Mean: 1}}},
				BGInstrRate: bgRate,
			}
		}
		return &MixResult{
			Mix:       Mix{Name: name},
			Deadlines: []float64{1},
			ByConfig: map[config.Name]*RunResult{
				config.Baseline:     mkRun(config.Baseline, 0.6, base, 0.10),
				config.StaticFreq:   mkRun(config.StaticFreq, 0.9, base*0.6, 0.08),
				config.StaticBoth:   mkRun(config.StaticBoth, 1.0, base*0.62, 0.04),
				config.DirigentFreq: mkRun(config.DirigentFreq, 0.95, base*0.85, 0.03),
				config.Dirigent:     mkRun(config.Dirigent, 1.0, base*dir, 0.015),
			},
		}
	}
	return []*MixResult{mk("a", 10, 0.92), mk("b", 20, 0.90)}
}

func TestSummarizeMath(t *testing.T) {
	rows, err := Summarize(fabricatedResults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[config.Name]SummaryRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	if got := byName[config.Baseline].FGRatio; got != 0.6 {
		t.Errorf("baseline FG ratio = %g", got)
	}
	if got := byName[config.Baseline].BGThroughput; got != 1 {
		t.Errorf("baseline BG = %g", got)
	}
	// Harmonic mean of {0.92, 0.90}.
	want := 2 / (1/0.92 + 1/0.90)
	if got := byName[config.Dirigent].BGThroughput; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Dirigent BG = %g, want %g", got, want)
	}
	// Rel std of Dirigent: 0.015/0.10 = 0.15 in both mixes.
	if got := byName[config.Dirigent].RelStd; got < 0.1499 || got > 0.1501 {
		t.Errorf("Dirigent rel std = %g", got)
	}
	out := RenderSummary("Fig. 10", rows)
	if !strings.Contains(out, "Dirigent") {
		t.Error("summary render incomplete")
	}
}

func TestSummarizeMissingConfig(t *testing.T) {
	broken := fabricatedResults()
	delete(broken[0].ByConfig, config.Dirigent)
	if _, err := Summarize(broken); err == nil {
		t.Error("missing config should error")
	}
}

func TestComputeHeadline(t *testing.T) {
	h, err := ComputeHeadline(fabricatedResults())
	if err != nil {
		t.Fatal(err)
	}
	if h.BaselineFGSuccess != 0.6 || h.DirigentFGSuccess != 1.0 {
		t.Errorf("headline success: %+v", h)
	}
	if h.DirigentStdReduction < 0.84 || h.DirigentStdReduction > 0.86 {
		t.Errorf("std reduction = %g, want 0.85", h.DirigentStdReduction)
	}
	if h.DirigentVsStaticBGGain <= 0 {
		t.Errorf("BG gain over static = %g", h.DirigentVsStaticBGGain)
	}
	out := h.Render()
	if !strings.Contains(out, "Headline") || !strings.Contains(out, "85%") {
		t.Error("headline render incomplete")
	}
}

func TestRenderComparisonAndStd(t *testing.T) {
	res := fabricatedResults()
	out := RenderComparison("Fig. 9a", res)
	if !strings.Contains(out, "Fig. 9a") || !strings.Contains(out, "a") {
		t.Error("comparison render incomplete")
	}
	out = RenderNormalizedStd(res)
	if !strings.Contains(out, "Fig. 14") {
		t.Error("std render incomplete")
	}

	// The policy sweep: one column per policy, one row per mix, each cell
	// the mean FG success over streams / BG throughput relative to
	// Baseline.
	run := func(bg float64, succ ...float64) *RunResult {
		rr := &RunResult{BGInstrRate: bg}
		for _, s := range succ {
			rr.Streams = append(rr.Streams, StreamResult{SuccessRate: s})
		}
		return rr
	}
	sweep := &PolicySweepResult{
		Policies: []string{"rtgang", "cordlike"},
		Mixes: []*PolicyMixResult{
			{Mix: Mix{Name: "ferret rs"}, Baseline: run(10, 0.5),
				ByPolicy: map[string]*RunResult{"rtgang": run(4, 0.5, 1), "cordlike": run(8, 0.9)}},
			{Mix: Mix{Name: "bodytrack pca"}, Baseline: run(20, 0.4),
				ByPolicy: map[string]*RunResult{"rtgang": run(5, 0.6), "cordlike": run(30, 1)}},
		},
	}
	out = RenderPolicySweep("Policy sweep", sweep)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 || lines[0] != "Policy sweep" {
		t.Fatalf("policy sweep render: want the title, a header and one row per mix:\n%s", out)
	}
	if h := strings.Fields(lines[1]); h[0] != "mix" || h[1] != "rtgang" || h[2] != "cordlike" {
		t.Errorf("policy sweep header %q: want one column per policy, in order", lines[1])
	}
	for i, want := range []string{
		"ferret rs                              0.75/ 0.40   0.90/ 0.80",
		"bodytrack pca                          0.60/ 0.25   1.00/ 1.50",
	} {
		if lines[2+i] != want {
			t.Errorf("policy sweep row %d = %q, want %q", i, lines[2+i], want)
		}
	}
	// Each policy's name and each of its cells end at the same column.
	from := 0
	for _, p := range sweep.Policies {
		end := from + strings.Index(lines[1][from:], p) + len(p)
		for _, row := range lines[2:] {
			if end > len(row) || row[end-1] == ' ' || (end < len(row) && row[end] != ' ') {
				t.Errorf("policy sweep: the %s cell of %q does not end at column %d, where the header's %q ends:\n%s",
					p, row, end, p, out)
			}
		}
		from = end
	}
}

func TestPDFCurves(t *testing.T) {
	res := fabricatedResults()[0]
	// Give each config a duration sample set.
	for _, c := range config.Names() {
		res.ByConfig[c].Streams[0].Durations = []float64{1.0, 1.1, 1.2, 1.05}
	}
	curves, err := PDFCurves(res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 5 {
		t.Fatalf("curves = %d", len(curves))
	}
	for c, h := range curves {
		total := 0
		for _, n := range h.Counts {
			total += n
		}
		if total != 4 {
			t.Errorf("%s histogram total = %d", c, total)
		}
	}
	out := RenderPDFCurves(res.Mix, curves)
	if !strings.Contains(out, "Fig. 11") {
		t.Error("pdf render incomplete")
	}
	// Missing config errors.
	delete(res.ByConfig, config.Dirigent)
	if _, err := PDFCurves(res, 8); err == nil {
		t.Error("missing config should error")
	}
}

func TestFreqDistribution(t *testing.T) {
	res := fabricatedResults()[0]
	levels := 9
	for _, c := range []config.Name{config.DirigentFreq, config.Dirigent} {
		resid := make([]time.Duration, levels)
		resid[0] = 2 * time.Second
		resid[8] = 6 * time.Second
		res.ByConfig[c].BGFreqResidency = resid
	}
	rows, err := NewRunner().FreqDistribution(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.GHz) != 5 {
			t.Errorf("grades = %d", len(r.GHz))
		}
		if r.Fraction[0] != 0.25 || r.Fraction[4] != 0.75 {
			t.Errorf("fractions = %v", r.Fraction)
		}
	}
	out := RenderFreqDistribution(res.Mix, rows)
	if !strings.Contains(out, "Fig. 12") {
		t.Error("freq render incomplete")
	}
	delete(res.ByConfig, config.Dirigent)
	if _, err := NewRunner().FreqDistribution(res); err == nil {
		t.Error("missing config should error")
	}
}

func TestTradeoffSweep(t *testing.T) {
	r := smallRunner()
	// The paper's Fig. 15 mix: raytrace + 5 bwaves.
	mix := Mix{Name: "raytrace bwaves", FG: []string{"raytrace"}, BG: repeat("bwaves", 5)}
	pts, standalone, err := r.TradeoffSweep(mix, []float64{1.06, 1.18})
	if err != nil {
		t.Fatal(err)
	}
	if standalone <= 0 || len(pts) != 2 {
		t.Fatalf("standalone = %g, pts = %d", standalone, len(pts))
	}
	// Fig. 15 shape: looser targets stretch FG time and raise BG
	// throughput.
	if pts[1].FGMeanNorm <= pts[0].FGMeanNorm {
		t.Errorf("FG mean should stretch with target: %v", pts)
	}
	if pts[1].BGThroughput < pts[0].BGThroughput {
		t.Errorf("BG throughput should not drop with looser target: %v", pts)
	}
	for _, p := range pts {
		if p.FGMeanNorm > p.TargetFactor+0.05 {
			t.Errorf("FG mean %.3f overshoots target %.2f", p.FGMeanNorm, p.TargetFactor)
		}
	}
	out := RenderTradeoff(mix, standalone, pts)
	if !strings.Contains(out, "Fig. 15") {
		t.Error("tradeoff render incomplete")
	}
	golden.Check(t, "testdata/tradeoff_sweep.json", struct {
		Standalone float64
		Points     []TradeoffPoint
	}{standalone, pts})
	if _, _, err := r.TradeoffSweep(Mix{Name: "bad"}, nil); err == nil {
		t.Error("invalid mix should error")
	}
}
