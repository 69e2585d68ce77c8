package config

import "testing"

func TestAllFiveConfigs(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() = %d configs, want 5", len(all))
	}
	want := []Name{Baseline, StaticFreq, StaticBoth, DirigentFreq, Dirigent}
	for i, c := range all {
		if c.Name != want[i] {
			t.Errorf("config %d = %s, want %s", i, c.Name, want[i])
		}
		if c.Description == "" {
			t.Errorf("%s has no description", c.Name)
		}
	}
	if got := Names(); len(got) != 5 || got[0] != Baseline || got[4] != Dirigent {
		t.Errorf("Names = %v", got)
	}
}

func TestConfigSemantics(t *testing.T) {
	byName := func(n Name) Config {
		t.Helper()
		c, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	base := byName(Baseline)
	if base.UseRuntime || base.StaticBGMinFreq {
		t.Errorf("Baseline should be unmanaged: %+v", base)
	}
	sf := byName(StaticFreq)
	if !sf.StaticBGMinFreq || sf.UseRuntime {
		t.Errorf("StaticFreq wrong: %+v", sf)
	}
	sb := byName(StaticBoth)
	if sb.StaticBGMinFreq || sb.UseRuntime {
		t.Errorf("StaticBoth wrong: %+v", sb)
	}
	df := byName(DirigentFreq)
	if !df.UseRuntime || df.RuntimePartitioning {
		t.Errorf("DirigentFreq wrong: %+v", df)
	}
	d := byName(Dirigent)
	if !d.UseRuntime || !d.RuntimePartitioning {
		t.Errorf("Dirigent wrong: %+v", d)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}
