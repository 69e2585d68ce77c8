package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEMASeedAndUpdate(t *testing.T) {
	e := MustEMA(0.2)
	if e.Seeded() {
		t.Error("fresh EMA should not be seeded")
	}
	if got := e.Add(10); got != 10 {
		t.Errorf("first Add = %g, want seed 10", got)
	}
	if !e.Seeded() {
		t.Error("EMA should be seeded after Add")
	}
	// v = 0.2*20 + 0.8*10 = 12
	if got := e.Add(20); !almostEq(got, 12, 1e-12) {
		t.Errorf("second Add = %g, want 12", got)
	}
	if e.weight != 0.2 {
		t.Errorf("weight = %g", e.weight)
	}
}

func TestEMAInvalidWeights(t *testing.T) {
	for _, w := range []float64{0, -0.1, 1.1} {
		if _, err := NewEMA(w); err == nil {
			t.Errorf("NewEMA(%g) should error", w)
		}
	}
	if _, err := NewEMA(1); err != nil {
		t.Errorf("NewEMA(1) should be valid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEMA(0) should panic")
		}
	}()
	MustEMA(0)
}

func TestEMAConvergence(t *testing.T) {
	// Feeding a constant must converge to that constant.
	e := MustEMA(0.3)
	e.Add(100)
	for i := 0; i < 200; i++ {
		e.Add(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Errorf("EMA did not converge: %g", e.Value())
	}
}

func TestEMABoundedByInputs(t *testing.T) {
	// Property: EMA value always lies within [min, max] of inputs seen.
	f := func(seed int64) bool {
		r := newTestRand(seed)
		e := MustEMA(0.25)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			x := r.float64()*200 - 100
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			v := e.Add(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingBasics(t *testing.T) {
	r := MustRing(3)
	if r.Len() != 0 || len(r.buf) != 3 {
		t.Fatalf("fresh ring len=%d cap=%d", r.Len(), len(r.buf))
	}
	r.Push(1)
	r.Push(2)
	got := r.Values()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Values = %v", got)
	}
	r.Push(3)
	r.Push(4) // evicts 1
	got = r.Values()
	want := []float64{2, 3, 4}
	if len(got) != 3 {
		t.Fatalf("Values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Values = %v, want %v", got, want)
		}
	}
}

func TestRingInvalid(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRing(-1) should panic")
		}
	}()
	MustRing(-1)
}

func TestRingOrderProperty(t *testing.T) {
	// Property: after pushing k samples into a ring of capacity c, Values
	// returns the last min(k, c) samples in order.
	f := func(seed int64) bool {
		r := newTestRand(seed)
		c := 1 + int(r.uint64()%16)
		k := int(r.uint64() % 64)
		ring := MustRing(c)
		all := make([]float64, 0, k)
		for i := 0; i < k; i++ {
			x := r.float64()
			all = append(all, x)
			ring.Push(x)
		}
		want := all
		if len(all) > c {
			want = all[len(all)-c:]
		}
		got := ring.Values()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
