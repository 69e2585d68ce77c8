package policy

import (
	"testing"

	"dirigent/internal/cache"
)

func newCoarseFixture(t *testing.T) (*cache.LLC, *CoarseController, cache.ClassID, cache.ClassID) {
	t.Helper()
	llc := cache.MustNew(cache.DefaultConfig())
	fg := llc.DefineClass()
	bg := llc.DefineClass()
	if err := llc.SetPartition(map[cache.ClassID]int{0: 0}); err != nil {
		t.Fatal(err)
	}
	cc, err := NewCoarseController(llc, fg, bg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return llc, cc, fg, bg
}

// startAt moves a fresh controller's FG partition to ways, so a heuristic
// test starts mid-range instead of at the minimal start.
func startAt(t *testing.T, cc *CoarseController, ways int) {
	t.Helper()
	cc.fgWays = ways
	if err := cc.apply(); err != nil {
		t.Fatal(err)
	}
}

// midRangeFixture is a controller on the default 20-way LLC starting at
// 10 FG ways, one heuristic step from either neighbour.
func midRangeFixture(t *testing.T) *CoarseController {
	t.Helper()
	_, cc, _, _ := newCoarseFixture(t)
	startAt(t, cc, 10)
	return cc
}

func TestNewCoarseControllerValidation(t *testing.T) {
	llc := cache.MustNew(cache.DefaultConfig())
	fg := llc.DefineClass()
	bg := llc.DefineClass()
	_ = llc.SetPartition(map[cache.ClassID]int{0: 0})
	if _, err := NewCoarseController(nil, fg, bg, nil); err == nil {
		t.Error("nil LLC should error")
	}
	if _, err := NewCoarseController(llc, fg, fg, nil); err == nil {
		t.Error("same class should error")
	}
}

func TestCoarseInitialPartition(t *testing.T) {
	llc, cc, fg, bg := newCoarseFixture(t)
	if cc.FGWays() != 2 {
		t.Errorf("initial FG ways = %d, want minFGWays 2", cc.FGWays())
	}
	w, _ := llc.ClassWays(fg)
	if w != 2 {
		t.Errorf("LLC FG partition = %d", w)
	}
	w, _ = llc.ClassWays(bg)
	if w != 18 {
		t.Errorf("LLC BG partition = %d", w)
	}
}

func TestCoarseDue(t *testing.T) {
	_, cc, _, _ := newCoarseFixture(t)
	if cc.Due() {
		t.Error("fresh controller should not be due")
	}
	for i := 1; i < DefaultAdjustEvery; i++ {
		cc.RecordExecution(1.0+0.1*float64(i), 100+10*float64(i), false)
		if cc.Due() {
			t.Errorf("%d executions < DefaultAdjustEvery %d", i, DefaultAdjustEvery)
		}
	}
	cc.RecordExecution(1.0, 100, false)
	if !cc.Due() {
		t.Errorf("%d executions should be due", DefaultAdjustEvery)
	}
}

func TestHeuristic1GrowsOnCorrelationAndMisses(t *testing.T) {
	cc := midRangeFixture(t)
	// Perfectly correlated times/misses, with deadline misses.
	for i := 0; i < 6; i++ {
		cc.RecordExecution(1.0+0.1*float64(i), 100+10*float64(i), i%2 == 0)
	}
	delta, err := cc.Adjust(0, FineWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if delta != 1 {
		t.Errorf("delta = %d, want +1 (heuristic 1)", delta)
	}
	if cc.FGWays() != 11 {
		t.Errorf("FGWays = %d", cc.FGWays())
	}
	if cc.Adjustments() != 1 {
		t.Errorf("Adjustments = %d", cc.Adjustments())
	}
}

func TestHeuristic1NeedsDeadlineMisses(t *testing.T) {
	cc := midRangeFixture(t)
	// Correlated but no deadline misses: no growth.
	for i := 0; i < 6; i++ {
		cc.RecordExecution(1.0+0.1*float64(i), 100+10*float64(i), false)
	}
	delta, err := cc.Adjust(0, FineWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("delta = %d, want 0 without deadline misses", delta)
	}
}

func TestHeuristic1NeedsCorrelation(t *testing.T) {
	cc := midRangeFixture(t)
	// Deadline misses but anti-correlated misses.
	for i := 0; i < 6; i++ {
		cc.RecordExecution(1.0+0.1*float64(i), 200-10*float64(i), true)
	}
	delta, err := cc.Adjust(0, FineWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("delta = %d, want 0 without correlation", delta)
	}
}

func TestHeuristic2UndoesUselessGrow(t *testing.T) {
	cc := midRangeFixture(t)
	for i := 0; i < 6; i++ {
		cc.RecordExecution(1.0+0.1*float64(i), 100+10*float64(i), true)
	}
	if d, _ := cc.Adjust(0, FineWindow{}); d != 1 {
		t.Fatal("setup: grow expected")
	}
	// Misses did NOT improve in the following window.
	for i := 0; i < 6; i++ {
		cc.RecordExecution(1.0, 130, false)
	}
	delta, err := cc.Adjust(0, FineWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if delta != -1 {
		t.Errorf("delta = %d, want -1 (heuristic 2 shrink)", delta)
	}
	if cc.FGWays() != 10 {
		t.Errorf("FGWays = %d, want back to 10", cc.FGWays())
	}
}

func TestHeuristic2KeepsUsefulGrow(t *testing.T) {
	cc := midRangeFixture(t)
	for i := 0; i < 6; i++ {
		cc.RecordExecution(1.0+0.1*float64(i), 100+10*float64(i), true)
	}
	if d, _ := cc.Adjust(0, FineWindow{}); d != 1 {
		t.Fatal("setup: grow expected")
	}
	// Misses clearly improved: the grow sticks (and no new trigger fires —
	// flush the whole 10-deep window with uncorrelated, deadline-met
	// records so heuristic 1 stays quiet).
	for i := 0; i < 10; i++ {
		cc.RecordExecution(1.0, 50+float64(i%2), false)
	}
	delta, err := cc.Adjust(0, FineWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("delta = %d, want 0 (grow retained)", delta)
	}
	if cc.FGWays() != 11 {
		t.Errorf("FGWays = %d, want 11", cc.FGWays())
	}
}

func TestHeuristic3GrowsOnBGSuppression(t *testing.T) {
	cc := midRangeFixture(t)
	// Uncorrelated executions, no deadline misses — but the fine controller
	// reports BG heavily suppressed.
	vals := []float64{100, 90, 110, 95, 105, 100}
	for i, v := range vals {
		cc.RecordExecution(1.0, v, i == 0)
	}
	delta, err := cc.Adjust(0, FineWindow{Decisions: 10, BGSuppressed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if delta != 1 {
		t.Errorf("delta = %d, want +1 (heuristic 3)", delta)
	}
	// Below the suppression threshold: nothing.
	for i, v := range vals {
		cc.RecordExecution(1.0, v, i == 0)
	}
	delta, _ = cc.Adjust(0, FineWindow{Decisions: 10, BGSuppressed: 2})
	// Heuristic 2 may shrink if the grow did not improve misses — accept -1
	// or 0 but never +1.
	if delta == 1 {
		t.Errorf("delta = %d, must not grow below suppression threshold", delta)
	}
}

func TestCoarseRespectsBounds(t *testing.T) {
	// The real ceiling: 18 of the default LLC's 20 ways, leaving BG two.
	llc, cc, _, _ := newCoarseFixture(t)
	startAt(t, cc, llc.Ways()-3)
	grow := func() int {
		for i := 0; i < 2; i++ {
			cc.RecordExecution(1.0+0.1*float64(i)+0.05*float64(i*i), 100+10*float64(i)+5*float64(i*i), true)
		}
		d, err := cc.Adjust(0, FineWindow{Decisions: 10, BGSuppressed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d := grow(); d != 1 {
		t.Fatalf("first grow = %d", d)
	}
	// 18 = max: further grows must be clamped to 0. (Each Adjust may also
	// invoke heuristic 2; feed improving misses so the grow sticks.)
	cc.lastWasGrow = false
	for i := 0; i < 2; i++ {
		cc.RecordExecution(1.0+0.1*float64(i), 10+10*float64(i), true)
	}
	d, err := cc.Adjust(0, FineWindow{Decisions: 10, BGSuppressed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 || cc.FGWays() != 18 {
		t.Errorf("at max: delta = %d, ways = %d", d, cc.FGWays())
	}
}
