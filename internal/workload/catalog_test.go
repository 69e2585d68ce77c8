package workload

import (
	"testing"

	"dirigent/internal/sim"
)

func TestCatalogValidates(t *testing.T) {
	for _, b := range All() {
		if err := b.Validate(); err != nil {
			t.Errorf("catalog benchmark %s invalid: %v", b.Name, err)
		}
	}
}

func TestCatalogComposition(t *testing.T) {
	fg := FG()
	if len(fg) != 5 {
		t.Fatalf("FG count = %d, want 5 (Table 1)", len(fg))
	}
	wantFG := map[string]bool{"bodytrack": true, "ferret": true, "fluidanimate": true, "raytrace": true, "streamcluster": true}
	for _, b := range fg {
		if !wantFG[b.Name] {
			t.Errorf("unexpected FG benchmark %s", b.Name)
		}
		if b.Kind != Foreground {
			t.Errorf("%s should be Foreground", b.Name)
		}
	}
	sbg := SingleBG()
	if len(sbg) != 3 {
		t.Fatalf("SingleBG count = %d, want 3", len(sbg))
	}
	for _, b := range sbg {
		if b.Kind != Background {
			t.Errorf("%s should be Background", b.Name)
		}
	}
	rot := RotateBenchmarks()
	if len(rot) != 4 {
		t.Fatalf("RotateBenchmarks count = %d, want 4", len(rot))
	}
	pairs := RotatePairs()
	if len(pairs) != 4 {
		t.Fatalf("RotatePairs count = %d, want 4", len(pairs))
	}
	for _, p := range pairs {
		if _, err := ByName(p[0]); err != nil {
			t.Errorf("pair member %s not in catalog", p[0])
		}
		if _, err := ByName(p[1]); err != nil {
			t.Errorf("pair member %s not in catalog", p[1])
		}
	}
	if len(All()) != 12 {
		t.Errorf("catalog count = %d, want 12", len(All()))
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("ferret")
	if err != nil || b.Name != "ferret" {
		t.Fatalf("ByName(ferret) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName(unknown) should panic")
		}
	}()
	MustByName("nope")
}

func TestCatalogReturnsCopies(t *testing.T) {
	a := MustByName("ferret")
	a.Phases[0].APKI = 999
	b := MustByName("ferret")
	if b.Phases[0].APKI == 999 {
		t.Error("catalog must return independent copies")
	}
}

func TestFGInstructionBudgetsSpanPaperRange(t *testing.T) {
	// Standalone times in Fig. 4 span 0.5–1.6 s at 2 GHz. A crude bound:
	// budget/2e9 (IPC ~1-2) must be within [0.3, 4] seconds equivalent.
	for _, b := range FG() {
		secs := b.TotalInstructions() / 2e9
		if secs < 0.3 || secs > 4 {
			t.Errorf("%s instruction budget %g implausible (%g s at 1 IPC)", b.Name, b.TotalInstructions(), secs)
		}
	}
	// streamcluster must be the longest FG (paper: ~1.6 s).
	var sc, maxOther float64
	for _, b := range FG() {
		if b.Name == "streamcluster" {
			sc = b.TotalInstructions()
		} else if b.TotalInstructions() > maxOther {
			maxOther = b.TotalInstructions()
		}
	}
	if sc <= maxOther {
		t.Error("streamcluster should have the largest instruction budget")
	}
}

func TestBGIntrusivenessSpectrum(t *testing.T) {
	// lbm must stream harder than namd by an order of magnitude (Fig. 5's
	// spectrum from lib+soplex to lbm+namd).
	apki := func(name string) float64 {
		b := MustByName(name)
		var sum, instr float64
		for _, p := range b.Phases {
			sum += p.APKI * p.Instructions
			instr += p.Instructions
		}
		return sum / instr
	}
	if apki("lbm") < 5*apki("namd") {
		t.Errorf("lbm APKI %g should dwarf namd APKI %g", apki("lbm"), apki("namd"))
	}
	if apki("rs") < apki("pca") {
		t.Errorf("rs (%g) should be at least as intrusive as pca (%g)", apki("rs"), apki("pca"))
	}
}

func TestRotator(t *testing.T) {
	rng := sim.NewRand(1)
	a := MustByName("lbm")
	b := MustByName("namd")
	r := mustRotator(a, b, rng)
	if r.Program().Benchmark().Name != "lbm" {
		t.Errorf("initial benchmark = %s", r.Program().Benchmark().Name)
	}
	seen := map[string]int{}
	for i := 0; i < 200; i++ {
		next := r.Rotate()
		seen[next.Name]++
		if r.Program().Benchmark() != next {
			t.Fatal("Program should run the rotated benchmark")
		}
		if r.Program().executed != 0 {
			t.Fatal("rotation should install a fresh program")
		}
	}
	// Both benchmarks selected a plausible number of times.
	if seen["lbm"] < 60 || seen["namd"] < 60 {
		t.Errorf("rotation skewed: %v", seen)
	}
}

func TestRotatorValidation(t *testing.T) {
	rng := sim.NewRand(1)
	fg := MustByName("ferret")
	bg := MustByName("namd")
	if _, err := NewRotator(fg, bg, rng); err == nil {
		t.Error("FG benchmark in rotator should error")
	}
	if _, err := NewRotator(bg, fg, rng); err == nil {
		t.Error("FG benchmark in rotator should error")
	}
	if _, err := NewRotator(bg, bg, nil); err == nil {
		t.Error("nil rng should error")
	}
	invalid := &Benchmark{Name: "bad", Kind: Background}
	if _, err := NewRotator(invalid, bg, rng); err == nil {
		t.Error("invalid first benchmark should error")
	}
	if _, err := NewRotator(bg, invalid, rng); err == nil {
		t.Error("invalid second benchmark should error")
	}
}
