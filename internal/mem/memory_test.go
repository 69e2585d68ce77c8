package mem

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{PeakBandwidth: 0, IdleLatency: time.Nanosecond, MaxStretch: 2}); err == nil {
		t.Error("zero bandwidth should error")
	}
	if _, err := New(Config{PeakBandwidth: 1e9, IdleLatency: 0, MaxStretch: 2}); err == nil {
		t.Error("zero latency should error")
	}
	if _, err := New(Config{PeakBandwidth: 1e9, IdleLatency: time.Nanosecond, MaxStretch: 0.5}); err == nil {
		t.Error("stretch < 1 should error")
	}
	if _, err := New(Config{PeakBandwidth: 1e9, IdleLatency: time.Nanosecond, MaxStretch: 2,
		Sockets: []Socket{{PeakBandwidth: 3e9}}}); err == nil {
		t.Error("one-entry Sockets list should error")
	}
	m := MustNew(DefaultConfig())
	if m.cfg.PeakBandwidth != 22e9 {
		t.Errorf("cfg = %+v", m.cfg)
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

func TestUtilization(t *testing.T) {
	m := MustNew(Config{PeakBandwidth: 1e9, IdleLatency: 100 * time.Nanosecond, MaxStretch: 10})
	dt := time.Millisecond
	// 1e9 B/s over 1ms = 1e6 bytes capacity.
	if got := m.Utilization(5e5, dt); got != 0.5 {
		t.Errorf("Utilization = %g, want 0.5", got)
	}
	if got := m.Utilization(2e6, dt); got != 2 {
		t.Errorf("over-demand Utilization = %g, want 2 (unclamped)", got)
	}
	if got := m.Utilization(100, 0); got != 0 {
		t.Errorf("zero-dt Utilization = %g, want 0", got)
	}
	// Each pool's bytes per quantum are cached for the last dt; a call
	// with another dt, or on another socket, must not read a stale one.
	two := MustNew(Config{PeakBandwidth: 1e9, IdleLatency: 100 * time.Nanosecond, MaxStretch: 10,
		Sockets: []Socket{{PeakBandwidth: 1e9}, {PeakBandwidth: 2e9}}})
	for _, c := range []struct {
		socket int // -1: the top-level pool, through Utilization
		dt     time.Duration
		want   float64
	}{
		{-1, 2 * dt, 0.25}, {0, dt, 0.5}, {1, dt, 0.25}, {1, 2 * dt, 0.125}, {-1, dt, 0.5}, {0, 2 * dt, 0.25},
	} {
		got := 0.0
		if c.socket < 0 {
			got = two.Utilization(5e5, c.dt)
		} else {
			got = two.UtilizationOn(c.socket, 5e5, c.dt)
		}
		if got != c.want {
			t.Errorf("socket %d, dt %v: Utilization = %g, want %g", c.socket, c.dt, got, c.want)
		}
	}
}

func TestLatencyStretchCurve(t *testing.T) {
	m := MustNew(DefaultConfig())
	cases := []struct {
		u    float64
		want float64
	}{
		{0, 1},
		{0.5, 2},
		{0.9, 10},
		{-1, 1}, // clamped
	}
	for _, c := range cases {
		if got := m.LatencyStretch(c.u); abs(got-c.want) > 1e-9 {
			t.Errorf("LatencyStretch(%g) = %g, want %g", c.u, got, c.want)
		}
	}
	// Above cap.
	if got := m.LatencyStretch(0.999); got != m.cfg.MaxStretch {
		t.Errorf("saturated stretch = %g, want cap %g", got, m.cfg.MaxStretch)
	}
}

func TestLatencyStretchMonotone(t *testing.T) {
	m := MustNew(DefaultConfig())
	f := func(a, b float64) bool {
		// Map arbitrary floats into [0, 2].
		ua := abs(a) - float64(int(abs(a)/2))*2
		ub := abs(b) - float64(int(abs(b)/2))*2
		if ua > ub {
			ua, ub = ub, ua
		}
		return m.LatencyStretch(ua) <= m.LatencyStretch(ub)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLatency(t *testing.T) {
	m := MustNew(Config{PeakBandwidth: 1e9, IdleLatency: 100 * time.Nanosecond, MaxStretch: 10})
	if got := m.Latency(0); got != 100*time.Nanosecond {
		t.Errorf("idle Latency = %v", got)
	}
	if got := m.Latency(0.5); got != 200*time.Nanosecond {
		t.Errorf("loaded Latency = %v", got)
	}
	// The machine's solver reads Latency as whole nanoseconds and relies on
	// it never truncating below one: the smallest valid idle latency is
	// 1 ns and the stretch is at least 1 at every utilization.
	floor := MustNew(Config{PeakBandwidth: 1e9, IdleLatency: time.Nanosecond, MaxStretch: 10})
	for _, u := range []float64{-1, 0, 0.5, 0.99, 2} {
		if got := floor.Latency(u); got < time.Nanosecond {
			t.Errorf("Latency(%g) with 1ns idle latency = %v, want >= 1ns", u, got)
		}
	}
}

func TestApplyAndCounters(t *testing.T) {
	m := MustNew(Config{PeakBandwidth: 1e9, IdleLatency: 100 * time.Nanosecond, MaxStretch: 10})
	if m.LastStretch() != 1 {
		t.Errorf("fresh LastStretch = %g", m.LastStretch())
	}
	m.Apply(5e5, time.Millisecond)
	if m.LastUtilization() != 0.5 {
		t.Errorf("LastUtilization = %g", m.LastUtilization())
	}
	if m.LastStretch() != 2 {
		t.Errorf("LastStretch = %g", m.LastStretch())
	}
}
