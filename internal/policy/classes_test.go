package policy

import (
	"math"
	"reflect"
	"testing"

	"dirigent/internal/cache"
	"dirigent/internal/machine"
	"dirigent/internal/workload"
)

// TestControllersDeriveFromClass checks, on every registered machine
// class, the parameters the controllers derive from the machine instead of
// taking them as options: the fine controller steps through
// GradesForLevels of the class's DVFS ladder, and the coarse controller
// starts the FG partition at two ways and grows it no further than the
// class's LLC ways less two.
func TestControllersDeriveFromClass(t *testing.T) {
	for _, name := range machine.ClassNames() {
		t.Run(name, func(t *testing.T) {
			cfg, err := machine.ClassConfig(name)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.MustNew(cfg)
			fg, err := m.Launch("ferret", workload.MustProgram(workload.MustByName("ferret")), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			bg, err := m.Launch("rs", workload.MustProgram(workload.MustByName("rs")), 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			fc, err := NewFineController(m, []int{fg}, []int{0}, []int{bg}, []int{1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := GradesForLevels(len(cfg.FreqLevelsGHz)); !reflect.DeepEqual(fc.grades, want) {
				t.Errorf("grades = %v, want GradesForLevels(%d) = %v", fc.grades, len(cfg.FreqLevelsGHz), want)
			}

			llc := m.LLC()
			fgClass, bgClass := llc.DefineClass(), llc.DefineClass()
			if err := llc.SetPartition(map[cache.ClassID]int{0: 0}); err != nil {
				t.Fatal(err)
			}
			cc, err := NewCoarseController(llc, fgClass, bgClass, nil)
			if err != nil {
				t.Fatal(err)
			}
			ways := llc.Ways()
			if got, _ := llc.ClassWays(fgClass); cc.FGWays() != 2 || got != 2 {
				t.Errorf("initial FG ways: controller %d, LLC %d, want 2", cc.FGWays(), got)
			}
			// Heuristic 3 grows the partition at every adjustment; misses
			// fall by a tenth per window so heuristic 2 never reverts a grow.
			for i := 0; i < ways; i++ {
				misses := 1000 * math.Pow(0.9, float64(i))
				for j := 0; j < DefaultHistory; j++ {
					cc.RecordExecution(1.0, misses, false)
				}
				if _, err := cc.Adjust(0, FineWindow{Decisions: 10, BGSuppressed: 9}); err != nil {
					t.Fatal(err)
				}
				if cc.FGWays() > ways-2 {
					t.Fatalf("FG ways grew to %d of %d", cc.FGWays(), ways)
				}
			}
			fgWays, _ := llc.ClassWays(fgClass)
			bgWays, _ := llc.ClassWays(bgClass)
			if cc.FGWays() != ways-2 || fgWays != ways-2 || bgWays != 2 {
				t.Errorf("after %d grows: controller %d, LLC FG %d BG %d ways, want FG %d of %d",
					ways, cc.FGWays(), fgWays, bgWays, ways-2, ways)
			}
		})
	}
}
