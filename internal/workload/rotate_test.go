package workload

import (
	"testing"

	"dirigent/internal/sim"
)

func TestNewRotatorValidation(t *testing.T) {
	a := MustByName("lbm")
	b := MustByName("namd")
	fg := MustByName("ferret")
	if _, err := NewRotator(a, b, nil); err == nil {
		t.Error("nil rng should error")
	}
	if _, err := NewRotator(fg, b, sim.NewRand(1)); err == nil {
		t.Error("foreground first benchmark should error")
	}
	if _, err := NewRotator(a, fg, sim.NewRand(1)); err == nil {
		t.Error("foreground second benchmark should error")
	}
}

func TestRotatorInitialState(t *testing.T) {
	a, b := MustByName("lbm"), MustByName("namd")
	r := mustRotator(a, b, sim.NewRand(7))
	if r.Program() == nil || r.Program().Benchmark() != a {
		t.Error("initial program must run the first benchmark")
	}
}

func TestRotateSwitchesAndCounts(t *testing.T) {
	a, b := MustByName("lbm"), MustByName("namd")
	r := mustRotator(a, b, sim.NewRand(42))
	counts := map[string]int{}
	const n = 400
	for i := 0; i < n; i++ {
		prev := r.Program()
		next := r.Rotate()
		if next != a && next != b {
			t.Fatalf("rotate returned foreign benchmark %v", next)
		}
		if r.Program() == prev {
			t.Fatal("each rotate must install a fresh program")
		}
		if r.Program().Benchmark() != next {
			t.Fatal("installed program must run the selected benchmark")
		}
		counts[next.Name]++
	}
	// Each side is picked with probability 1/2; a 1/4 floor on 400 draws is
	// ~16 sigma from fair, so this never flakes on a working rotator.
	if counts[a.Name] < n/4 || counts[b.Name] < n/4 {
		t.Errorf("selection badly unbalanced: %v", counts)
	}
}

func TestRotateDeterministicBySeed(t *testing.T) {
	seq := func(seed uint64) []string {
		r := mustRotator(MustByName("lbm"), MustByName("namd"), sim.NewRand(seed))
		out := make([]string, 64)
		for i := range out {
			out[i] = r.Rotate().Name
		}
		return out
	}
	s1, s2 := seq(9), seq(9)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed diverged at rotation %d: %s vs %s", i, s1[i], s2[i])
		}
	}
	s3 := seq(10)
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 64-rotation sequence")
	}
}

// mustRotator is NewRotator that panics on error.
func mustRotator(a, b *Benchmark, rng *sim.Rand) *Rotator {
	r, err := NewRotator(a, b, rng)
	if err != nil {
		panic(err)
	}
	return r
}
