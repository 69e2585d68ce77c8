package experiment

import (
	"strings"
	"testing"
)

func TestMixCatalogCounts(t *testing.T) {
	if got := SingleBGMixes(); len(got) != 15 {
		t.Errorf("SingleBGMixes = %d, want 15 (5 FG x 3 BG)", len(got))
	}
	if got := RotateBGMixes(); len(got) != 20 {
		t.Errorf("RotateBGMixes = %d, want 20 (5 FG x 4 pairs)", len(got))
	}
	if got := MultiFGMixes(); len(got) != 15 {
		t.Errorf("MultiFGMixes = %d, want 15 (5 pairs x 3 counts)", len(got))
	}
	if got := AllSingleFGMixes(); len(got) != 35 {
		t.Errorf("AllSingleFGMixes = %d, want 35", len(got))
	}
}

func TestMixCatalogValidates(t *testing.T) {
	var all []Mix
	all = append(all, AllSingleFGMixes()...)
	all = append(all, MultiFGMixes()...)
	names := map[string]bool{}
	for _, m := range all {
		if err := m.Validate(); err != nil {
			t.Errorf("mix %s invalid: %v", m.Name, err)
		}
		if names[m.Name] {
			t.Errorf("duplicate mix name %s", m.Name)
		}
		names[m.Name] = true
		// Total tasks must fill the 6-core machine.
		if len(m.FG)+len(m.BG) != 6 {
			t.Errorf("mix %s has %d tasks, want 6", m.Name, len(m.FG)+len(m.BG))
		}
	}
}

func TestMultiFGMixShape(t *testing.T) {
	mixes := MultiFGMixes()
	// First pair group: bodytrack x1..x3.
	for i := 0; i < 3; i++ {
		m := mixes[i]
		if len(m.FG) != i+1 {
			t.Errorf("mix %s FG count = %d, want %d", m.Name, len(m.FG), i+1)
		}
		for _, fg := range m.FG {
			if fg != "bodytrack" {
				t.Errorf("mix %s FG = %s", m.Name, fg)
			}
		}
		if !strings.Contains(m.Name, "x"+string(rune('1'+i))) {
			t.Errorf("mix name %s should carry the copy count", m.Name)
		}
	}
}

func TestMixValidateErrors(t *testing.T) {
	cases := []Mix{
		{Name: "no fg"},
		{Name: "bad fg", FG: []string{"nope"}},
		{Name: "bg as fg", FG: []string{"bwaves"}},
		{Name: "bad bg", FG: []string{"ferret"}, BG: []string{"nope"}},
		{Name: "fg as bg", FG: []string{"ferret"}, BG: []string{"raytrace"}},
		{Name: "bad pair", FG: []string{"ferret"}, BG: []string{"lbm+nope"}},
		{Name: "fg in pair", FG: []string{"ferret"}, BG: []string{"ferret+namd"}},
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %q should fail validation", m.Name)
		}
	}
}

func TestMixSeedStable(t *testing.T) {
	a := Mix{Name: "ferret rs"}
	b := Mix{Name: "ferret rs"}
	if a.Seed() != b.Seed() {
		t.Error("same name must give same seed")
	}
	c := Mix{Name: "ferret pca"}
	if a.Seed() == c.Seed() {
		t.Error("different names should give different seeds")
	}
}

func TestMixResolvers(t *testing.T) {
	m := Mix{Name: "x", FG: []string{"ferret", "raytrace"}, BG: []string{"bwaves", "lbm+namd"}}
	fg, err := m.FGBenchmarks()
	if err != nil || len(fg) != 2 || fg[0].Name != "ferret" {
		t.Errorf("FGBenchmarks = %v, %v", fg, err)
	}
	bg, err := m.BGSpecs()
	if err != nil || len(bg) != 2 {
		t.Fatalf("BGSpecs = %v, %v", bg, err)
	}
	if bg[0].IsRotate() || bg[0].Name() != "bwaves" {
		t.Errorf("spec 0 = %+v", bg[0])
	}
	if !bg[1].IsRotate() || bg[1].Name() != "lbm+namd" {
		t.Errorf("spec 1 = %+v", bg[1])
	}
	bad := Mix{Name: "x", FG: []string{"nope"}}
	if _, err := bad.FGBenchmarks(); err == nil {
		t.Error("bad FG should error")
	}
	bad2 := Mix{Name: "x", FG: []string{"ferret"}, BG: []string{"nope+namd"}}
	if _, err := bad2.BGSpecs(); err == nil {
		t.Error("bad pair member should error")
	}
	bad3 := Mix{Name: "x", FG: []string{"ferret"}, BG: []string{"lbm+nope"}}
	if _, err := bad3.BGSpecs(); err == nil {
		t.Error("bad second pair member should error")
	}
}
