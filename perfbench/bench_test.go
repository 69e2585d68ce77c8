package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dirigent/internal/load"
)

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	if a, b := sessionSeeds(7, 20, 9), sessionSeeds(7, 20, 9); !reflect.DeepEqual(a, b) {
		t.Error("session seeds differ for one seed")
	}
	if a, b := sessionSeeds(7, 20, 9), sessionSeeds(8, 20, 9); reflect.DeepEqual(a, b) {
		t.Error("session seeds equal for two seeds")
	}
	for _, s := range sessionSeeds(7, 20, 9)[1:] {
		for _, v := range s {
			if v == 0 {
				t.Fatal("a drawn session seed is 0, which means the scenario's own seed")
			}
		}
	}

	if a, b := controlSchedule(7, controlRate, 5, 1), controlSchedule(7, controlRate, 5, 1); !reflect.DeepEqual(a, b) || len(a) == 0 {
		t.Error("op schedule differs for one seed, or is empty")
	}
	if a, b := controlSchedule(7, controlRate, 5, 1), controlSchedule(8, controlRate, 5, 1); reflect.DeepEqual(a, b) {
		t.Error("op schedule equal for two seeds")
	}

	spec, err := load.LoadSpec("../" + churnSpec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := churnCreates(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := churnCreates(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || len(a) < fixedTenants {
		t.Errorf("tenant sequence differs for one seed, or has %d < %d creates", len(a), fixedTenants)
	}
	c, err := churnCreates(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a[:fixedTenants], c[:fixedTenants]) {
		t.Error("tenant sequence equal for two seeds")
	}
}

// TestScheduleBGPairs checks that every evict follows its own admit.
func TestScheduleBGPairs(t *testing.T) {
	open := map[int]bool{}
	for _, op := range controlSchedule(3, controlRate, 10, 1) {
		switch op.kind {
		case opAdmitBG:
			open[op.arg] = true
		case opEvictBG:
			if !open[op.arg] {
				t.Fatalf("evict of pair %d before its admit", op.arg)
			}
			delete(open, op.arg)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.90, true}, {99, 0.90, false},
		{20, 0.50, true}, {19, 0.50, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) reportable = %v, want %v", c.n, c.p, ok, c.ok)
		}
		if want := float64(int(c.p*float64(c.n) + 0.999999)); ok && v != want {
			t.Errorf("percentile(n=%d, p=%g) = %v, want %v", c.n, c.p, v, want)
		}
	}

	rep := newReport("t")
	rep.pct("latency_p99_ms", seq(500), 0.99)
	if _, ok := rep.e2e["latency_p99_ms"]; ok || len(rep.missing) != 1 {
		t.Error("a p99 over 500 samples was reported")
	}
}

// TestFailedOpCounts injects a failing operation into a serve-control
// phase: the finished tenant's stored result is corrupted, so its result
// read no longer matches and must count as a failure.
func TestFailedOpCounts(t *testing.T) {
	ref := startRefSampler()
	defer ref.Stop()
	cs, err := setupControl(1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cs.shutdown(); err != nil {
			t.Error(err)
		}
	}()
	cs.results[0] = []byte("corrupted")
	ops := []controlOp{
		{at: 0, kind: opResult, arg: 0},
		{at: 1e6, kind: opResult, arg: 1},
		{at: 2e6, kind: opStats},
		{at: 3e6, kind: opRetarget, arg: 1},
	}
	ph, err := runControlPhase(cs, ops, ref, nil, newHTTPStats())
	if err != nil {
		t.Fatal(err)
	}
	if ph.failures != 1 || len(ph.lat) != len(ops) {
		t.Fatalf("failures = %d of %d ops, want 1 of %d (%v)", ph.failures, len(ph.lat), len(ops), ph.errs)
	}
	for _, lat := range [][]float64{ph.lat, ph.latC} {
		if v, _ := percentile(lat, 0.99); !math.IsInf(v, 1) {
			t.Errorf("a failed op's latency is %v, want +Inf", v)
		}
	}
}

// TestRouteMediansIgnoreShares checks that the bounded serve-control
// latency does not depend on how the operations split over the routes.
func TestRouteMediansIgnoreShares(t *testing.T) {
	even, skewed := map[opKind][]float64{}, map[opKind][]float64{}
	for k := range opRoutes {
		for i := 0; i < 30; i++ {
			v := float64(k+1) + float64(i%3)/10
			even[opKind(k)] = append(even[opKind(k)], v)
			for j := 0; j <= k; j++ {
				skewed[opKind(k)] = append(skewed[opKind(k)], v)
			}
		}
	}
	_, a, okA := routeMedians(even)
	_, b, okB := routeMedians(skewed)
	if !okA || !okB || math.Abs(a-b) > 1e-12 {
		t.Errorf("geometric mean of route medians: %v (%v) with equal shares, %v (%v) with skewed ones", a, okA, b, okB)
	}
	delete(even, opList)
	if _, _, ok := routeMedians(even); ok {
		t.Error("a route without samples still gave a figure")
	}
}

// TestIncompleteFixedSetFails checks that a serve-tenants phase that ended
// before every fixed tenant was done fails the run.
func TestIncompleteFixedSetFails(t *testing.T) {
	ph := &churnPhase{fixed: make([]*tenantOut, fixedTenants)}
	for i := range ph.fixed {
		ph.fixed[i] = &tenantOut{}
	}
	rep := newReport("t")
	checkFixedDone(ph, rep)
	if len(rep.problems) != 0 {
		t.Fatalf("a complete fixed set failed: %v", rep.problems)
	}
	ph.fixed[fixedTenants-1] = nil
	checkFixedDone(ph, rep)
	if len(rep.problems) != 1 {
		t.Errorf("a fixed set missing one tenant gave %d failed checks, want 1", len(rep.problems))
	}
}

// TestScaleDiscountsStolenTime checks that the drift scale takes out the
// share of busy CPU time the hypervisor stole around an interval.
func TestScaleDiscountsStolenTime(t *testing.T) {
	t0 := time.Now()
	s := &refSampler{inline: true, samples: []refSample{
		{at: t0, ns: float64(refNominal), cpu: -1, steal: 100, busy: 1000},
		{at: t0.Add(time.Second), ns: float64(refNominal), cpu: -1, steal: 150, busy: 1500},
	}}
	if got := s.scale(t0, t0.Add(time.Second)); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("scale with 10%% of busy time stolen = %v, want 0.9", got)
	}
	s.samples[1].steal = 100
	if got := s.scale(t0, t0.Add(time.Second)); math.Abs(got-1) > 1e-12 {
		t.Errorf("scale with nothing stolen = %v, want 1", got)
	}
}
