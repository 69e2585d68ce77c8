package cache

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

const quantum = 100 * time.Microsecond

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Bytes: 0, Ways: 20}); err == nil {
		t.Error("zero bytes should error")
	}
	if _, err := New(Config{Bytes: 1 << 20, Ways: 0}); err == nil {
		t.Error("zero ways should error")
	}
	l := MustNew(DefaultConfig())
	if l.Ways() != 20 {
		t.Errorf("Ways = %d", l.Ways())
	}
	if got := l.wayBytes; got != float64(15<<20)/20 {
		t.Errorf("wayBytes = %g", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config should panic")
		}
	}()
	MustNew(Config{})
}

func TestPartitionManagement(t *testing.T) {
	l := MustNew(DefaultConfig())
	fg := l.DefineClass()
	bg := l.DefineClass()
	if err := l.SetPartition(map[ClassID]int{0: 0, fg: 5, bg: 15}); err != nil {
		t.Fatal(err)
	}
	w, err := l.ClassWays(fg)
	if err != nil || w != 5 {
		t.Errorf("ClassWays(fg) = %d, %v", w, err)
	}
	w, err = l.ClassWays(bg)
	if err != nil || w != 15 {
		t.Errorf("ClassWays(bg) = %d, %v", w, err)
	}
	// Over-allocation rejected.
	if err := l.SetPartition(map[ClassID]int{fg: 21}); err == nil {
		t.Error("over-allocation should error")
	}
	// Negative rejected.
	if err := l.SetPartition(map[ClassID]int{fg: -1}); err == nil {
		t.Error("negative ways should error")
	}
	// Unknown class rejected.
	if err := l.SetPartition(map[ClassID]int{99: 1}); err == nil {
		t.Error("unknown class should error")
	}
	if _, err := l.ClassWays(99); err == nil {
		t.Error("ClassWays(unknown) should error")
	}
	// Partial update keeps unmentioned classes.
	if err := l.SetPartition(map[ClassID]int{fg: 4}); err != nil {
		t.Fatal(err)
	}
	w, _ = l.ClassWays(bg)
	if w != 15 {
		t.Errorf("bg ways after partial update = %d, want 15", w)
	}
}

func TestPartitionPartialUpdateOverflow(t *testing.T) {
	l := MustNew(Config{Bytes: 1 << 20, Ways: 10})
	fg := l.DefineClass()
	if err := l.SetPartition(map[ClassID]int{0: 5, fg: 5}); err != nil {
		t.Fatal(err)
	}
	// Raising fg alone to 6 would total 11 > 10: must fail and leave state
	// unchanged.
	if err := l.SetPartition(map[ClassID]int{fg: 6}); err == nil {
		t.Fatal("overflow through partial update should error")
	}
	w, _ := l.ClassWays(fg)
	if w != 5 {
		t.Errorf("failed update mutated state: fg ways = %d", w)
	}
}

func TestRegisterUnregister(t *testing.T) {
	l := MustNew(DefaultConfig())
	if err := l.Register(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(1, ClassID(42)); err == nil {
		t.Error("register to unknown class should error")
	}
	if got := occupancy(l, 1); got != 0 {
		t.Errorf("initial occupancy = %g", got)
	}
	if got := occupancy(l, 999); got != 0 {
		t.Errorf("unknown task occupancy = %g", got)
	}
	l.Unregister(1)
	if got := occupancy(l, 1); got != 0 {
		t.Errorf("occupancy after unregister = %g", got)
	}
}

func TestHitRateGrowsWithOccupancy(t *testing.T) {
	l := MustNew(DefaultConfig())
	if err := l.Register(1, 0); err != nil {
		t.Fatal(err)
	}
	wss := 4.0 * (1 << 20)
	if hr := hitRate(l, 1, wss, 0.9); hr != 0 {
		t.Errorf("cold hit rate = %g, want 0", hr)
	}
	// Warm the cache: sustained misses fill occupancy.
	prev := 0.0
	for i := 0; i < 2000; i++ {
		l.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: 5000, MissRate: 1 - hitRate(l, 1, wss, 0.9), WSS: wss}})
		hr := hitRate(l, 1, wss, 0.9)
		if hr < prev-1e-9 {
			t.Fatalf("hit rate decreased while warming: %g -> %g", prev, hr)
		}
		prev = hr
	}
	if prev < 0.85 {
		t.Errorf("warmed hit rate = %g, want near locality 0.9", prev)
	}
	if prev > 0.9+1e-9 {
		t.Errorf("hit rate %g exceeds locality bound 0.9", prev)
	}
}

func TestHitRateClampsLocality(t *testing.T) {
	l := MustNew(DefaultConfig())
	_ = l.Register(1, 0)
	// Force occupancy via warming, then query with out-of-range locality.
	for i := 0; i < 500; i++ {
		l.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: 10000, MissRate: 0.5, WSS: 1 << 20}})
	}
	if hr := hitRate(l, 1, 1<<20, 1.5); hr > 1 {
		t.Errorf("hit rate with locality>1 = %g", hr)
	}
	if hr := hitRate(l, 1, 1<<20, -0.5); hr != 0 {
		t.Errorf("hit rate with locality<0 = %g", hr)
	}
	if hr := hitRate(l, 1, 0, 0.9); hr != 0 {
		t.Errorf("hit rate with zero wss = %g", hr)
	}
	if hr := hitRate(l, 42, 1<<20, 0.9); hr != 0 {
		t.Errorf("hit rate of unknown task = %g", hr)
	}
}

// TestApplyClampsMissRate pins ApplyFast's traffic handling: a miss rate
// above 1 inserts exactly what a miss rate of 1 does, and traffic from an
// unknown task is skipped without creating state.
func TestApplyClampsMissRate(t *testing.T) {
	clamped, exact := MustNew(DefaultConfig()), MustNew(DefaultConfig())
	_ = clamped.Register(1, 0)
	_ = exact.Register(1, 0)
	for i := 0; i < 50; i++ {
		clamped.ApplyFast(quantum, []Traffic{
			{Task: 1, Accesses: 1000, MissRate: 2.0, WSS: 1 << 20},
			{Task: 7, Accesses: 1000, MissRate: 1, WSS: 1 << 20},
		})
		exact.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: 1000, MissRate: 1, WSS: 1 << 20}})
	}
	if got, want := occupancy(clamped, 1), occupancy(exact, 1); got != want || got == 0 {
		t.Errorf("occupancy with miss rate 2 = %g, with miss rate 1 = %g", got, want)
	}
	if clamped.Ref(7) != nil || occupancy(clamped, 7) != 0 {
		t.Error("unknown task traffic created cache state")
	}
}

func TestPartitionIsolation(t *testing.T) {
	// Two tasks in disjoint classes must not steal each other's occupancy.
	l := MustNew(DefaultConfig())
	fg := l.DefineClass()
	bg := l.DefineClass()
	if err := l.SetPartition(map[ClassID]int{0: 0, fg: 10, bg: 10}); err != nil {
		t.Fatal(err)
	}
	_ = l.Register(1, fg)
	_ = l.Register(2, bg)
	wss1 := 4.0 * (1 << 20)
	wss2 := 64.0 * (1 << 20) // streaming giant
	for i := 0; i < 3000; i++ {
		l.ApplyFast(quantum, []Traffic{
			{Task: 1, Accesses: 3000, MissRate: 1 - hitRate(l, 1, wss1, 0.9), WSS: wss1},
			{Task: 2, Accesses: 20000, MissRate: 1 - hitRate(l, 2, wss2, 0.6), WSS: wss2},
		})
	}
	// FG working set (4MB) fits in its 7.5MB partition: occupancy ~ wss.
	occ1 := occupancy(l, 1)
	if occ1 < 0.9*wss1 {
		t.Errorf("isolated FG occupancy = %g, want ~%g", occ1, wss1)
	}
	// BG must not exceed its own partition.
	occ2 := occupancy(l, 2)
	if occ2 > 10*l.wayBytes*1.001 {
		t.Errorf("BG occupancy %g exceeds its partition %g", occ2, 10*l.wayBytes)
	}
}

func TestSharedClassContention(t *testing.T) {
	// In a shared class, a high-traffic task squeezes a low-traffic task.
	l := MustNew(DefaultConfig())
	_ = l.Register(1, 0)
	_ = l.Register(2, 0)
	wss1 := 8.0 * (1 << 20)
	wss2 := 64.0 * (1 << 20)
	// Warm task 1 alone first.
	for i := 0; i < 2000; i++ {
		l.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: 3000, MissRate: 1 - hitRate(l, 1, wss1, 0.9), WSS: wss1}})
	}
	occAlone := occupancy(l, 1)
	// Add aggressive streamer.
	for i := 0; i < 3000; i++ {
		l.ApplyFast(quantum, []Traffic{
			{Task: 1, Accesses: 3000, MissRate: 1 - hitRate(l, 1, wss1, 0.9), WSS: wss1},
			{Task: 2, Accesses: 30000, MissRate: 1 - hitRate(l, 2, wss2, 0.5), WSS: wss2},
		})
	}
	occContended := occupancy(l, 1)
	if occContended >= occAlone {
		t.Errorf("contention should shrink occupancy: alone %g, contended %g", occAlone, occContended)
	}
}

func TestCacheInertia(t *testing.T) {
	// After a partition shrink, occupancy must drain gradually, not jump.
	l := MustNew(DefaultConfig())
	fg := l.DefineClass()
	bg := l.DefineClass()
	if err := l.SetPartition(map[ClassID]int{0: 0, fg: 15, bg: 5}); err != nil {
		t.Fatal(err)
	}
	_ = l.Register(1, fg)
	wss := 10.0 * (1 << 20)
	step := func() {
		l.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: 3000, MissRate: 1 - hitRate(l, 1, wss, 0.9), WSS: wss}})
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	before := occupancy(l, 1)
	if before < 8*(1<<20) {
		t.Fatalf("warmup failed: occupancy %g", before)
	}
	// Shrink FG partition to 2 ways (1.5MB).
	if err := l.SetPartition(map[ClassID]int{fg: 2, bg: 18}); err != nil {
		t.Fatal(err)
	}
	step()
	after1 := occupancy(l, 1)
	if after1 < before*0.5 {
		t.Errorf("occupancy collapsed instantly: %g -> %g", before, after1)
	}
	// But it must eventually converge under the new cap.
	for i := 0; i < 20000; i++ {
		step()
	}
	final := occupancy(l, 1)
	if final > 2*l.wayBytes*1.01 {
		t.Errorf("occupancy %g did not converge under new partition %g", final, 2*l.wayBytes)
	}
}

// ApplyFast caches dt's seconds and the base drift rate for the last dt. A
// task with no accesses and a working set smaller than its class converges
// at exactly that drift, so a stale cache after a change of dt shows up.
func TestApplyFastFollowsQuantumLength(t *testing.T) {
	l := MustNew(DefaultConfig())
	_ = l.Register(1, 0)
	const wss = 1 << 20
	want := 0.0
	for _, dt := range []time.Duration{quantum, 4 * quantum, quantum} {
		l.ApplyFast(dt, []Traffic{{Task: 1, WSS: wss}})
		want += (wss - want) * (0.02 * dt.Seconds() / 0.005)
		if got := occupancy(l, 1); got != want {
			t.Fatalf("after a %v quantum: occupancy %v, want %v", dt, got, want)
		}
	}
}

func TestZeroWayClassDrains(t *testing.T) {
	l := MustNew(DefaultConfig())
	cl := l.DefineClass() // zero ways
	_ = l.Register(1, cl)
	for i := 0; i < 100; i++ {
		l.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: 1000, MissRate: 0.5, WSS: 1 << 20}})
	}
	if occ := occupancy(l, 1); occ > 1 {
		t.Errorf("zero-way class retained occupancy %g", occ)
	}
	if hr := hitRate(l, 1, 1<<20, 0.9); hr > 0.01 {
		t.Errorf("zero-way class hit rate = %g", hr)
	}
}

func TestPausedTaskLosesOccupancyToActive(t *testing.T) {
	l := MustNew(DefaultConfig())
	_ = l.Register(1, 0)
	_ = l.Register(2, 0)
	wss := 8.0 * (1 << 20)
	for i := 0; i < 3000; i++ {
		l.ApplyFast(quantum, []Traffic{{Task: 1, Accesses: 5000, MissRate: 1 - hitRate(l, 1, wss, 0.9), WSS: wss}})
	}
	occ := occupancy(l, 1)
	// Task 1 pauses; task 2 streams.
	for i := 0; i < 3000; i++ {
		l.ApplyFast(quantum, []Traffic{{Task: 2, Accesses: 30000, MissRate: 0.8, WSS: 64 << 20}})
	}
	if got := occupancy(l, 1); got >= occ*0.5 {
		t.Errorf("paused task kept %g of %g occupancy under pressure", got, occ)
	}
}

func TestOccupancyConservationProperty(t *testing.T) {
	// Property: total occupancy within a class never exceeds class capacity
	// by more than rounding, for random traffic patterns.
	f := func(seed uint64) bool {
		l := MustNew(Config{Bytes: 4 << 20, Ways: 8})
		_ = l.Register(1, 0)
		_ = l.Register(2, 0)
		_ = l.Register(3, 0)
		s := seed
		next := func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s%1000) / 1000
		}
		for i := 0; i < 500; i++ {
			tr := []Traffic{
				{Task: 1, Accesses: 20000 * next(), MissRate: next(), WSS: 2 << 20},
				{Task: 2, Accesses: 20000 * next(), MissRate: next(), WSS: 8 << 20},
				{Task: 3, Accesses: 20000 * next(), MissRate: next(), WSS: 1 << 20},
			}
			l.ApplyFast(quantum, tr)
			total := occupancy(l, 1) + occupancy(l, 2) + occupancy(l, 3)
			if total > float64(l.ways)*l.wayBytes*1.01 {
				return false
			}
			if occupancy(l, 1) < 0 || occupancy(l, 2) < 0 || occupancy(l, 3) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEquilibriumSplitsByTraffic(t *testing.T) {
	// Two identical tasks sharing a class converge to equal occupancy.
	l := MustNew(DefaultConfig())
	_ = l.Register(1, 0)
	_ = l.Register(2, 0)
	wss := 32.0 * (1 << 20)
	for i := 0; i < 10000; i++ {
		l.ApplyFast(quantum, []Traffic{
			{Task: 1, Accesses: 10000, MissRate: 1 - hitRate(l, 1, wss, 0.8), WSS: wss},
			{Task: 2, Accesses: 10000, MissRate: 1 - hitRate(l, 2, wss, 0.8), WSS: wss},
		})
	}
	o1, o2 := occupancy(l, 1), occupancy(l, 2)
	if math.Abs(o1-o2)/math.Max(o1, o2) > 0.05 {
		t.Errorf("symmetric tasks diverged: %g vs %g", o1, o2)
	}
}

// hitRate is HitRateRef by task ID.
func hitRate(l *LLC, task int, wss, locality float64) float64 {
	return l.HitRateRef(l.Ref(task), wss, locality)
}
