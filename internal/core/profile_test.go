package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"dirigent/internal/workload"
)

func testProfile(t *testing.T, bench string) *Profile {
	t.Helper()
	p, err := ProfileBenchmark(workload.MustByName(bench), ProfilerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileBenchmarkValidation(t *testing.T) {
	if _, err := ProfileBenchmark(nil, ProfilerOptions{}); err == nil {
		t.Error("nil benchmark should error")
	}
	if _, err := ProfileBenchmark(workload.MustByName("bwaves"), ProfilerOptions{}); err == nil {
		t.Error("BG benchmark should error")
	}
	if _, err := ProfileBenchmark(workload.MustByName("ferret"), ProfilerOptions{SamplePeriod: time.Nanosecond}); err == nil {
		t.Error("sample period below quantum should error")
	}
}

func TestProfileBenchmarkShape(t *testing.T) {
	p := testProfile(t, "ferret")
	if p.Benchmark != "ferret" {
		t.Errorf("Benchmark = %s", p.Benchmark)
	}
	if p.SamplePeriod != DefaultSamplePeriod {
		t.Errorf("SamplePeriod = %v", p.SamplePeriod)
	}
	// Paper: ΔT=5ms provides "100 or more segments in all the FG
	// applications we test". ferret standalone ≈ 1.2 s → ~240 segments.
	if len(p.Segments) < 100 {
		t.Errorf("segments = %d, want >= 100", len(p.Segments))
	}
	// Total progress ≈ instruction budget.
	want := workload.MustByName("ferret").TotalInstructions()
	got := p.TotalProgress()
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("TotalProgress = %g, want ~%g", got, want)
	}
	// Total duration ≈ standalone execution time (0.85–1.55 s band).
	d := p.TotalDuration().Seconds()
	if d < 0.85 || d > 1.55 {
		t.Errorf("TotalDuration = %.3fs", d)
	}
	// All but the final segment should last exactly ΔT (the simulator's
	// timers are exact; the paper's ΔT_i differ only through timer error).
	for i, s := range p.Segments[:len(p.Segments)-1] {
		if s.Duration != DefaultSamplePeriod {
			t.Errorf("segment %d duration = %v", i, s.Duration)
			break
		}
	}
	// Progress must differ between segments (the paper's Fig. 3a point:
	// instruction mix varies), i.e. not all segments identical.
	first := p.Segments[0].Progress
	varies := false
	for _, s := range p.Segments {
		if s.Progress != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("segment progress should vary across phases")
	}
}

func TestProfileValidate(t *testing.T) {
	good := &Profile{
		Benchmark:    "x",
		SamplePeriod: time.Millisecond,
		Segments:     []Segment{{Progress: 10, Duration: time.Millisecond}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Profile{
		{SamplePeriod: time.Millisecond, Segments: good.Segments},
		{Benchmark: "x", Segments: good.Segments},
		{Benchmark: "x", SamplePeriod: time.Millisecond},
		{Benchmark: "x", SamplePeriod: time.Millisecond, Segments: []Segment{{Progress: 0, Duration: time.Millisecond}}},
		{Benchmark: "x", SamplePeriod: time.Millisecond, Segments: []Segment{{Progress: 1, Duration: 0}}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := testProfile(t, "fluidanimate")
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := readProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Benchmark != p.Benchmark || q.SamplePeriod != p.SamplePeriod || len(q.Segments) != len(p.Segments) {
		t.Errorf("round trip mismatch: %v vs %v", q, p)
	}
	for i := range p.Segments {
		if p.Segments[i] != q.Segments[i] {
			t.Fatalf("segment %d mismatch", i)
		}
	}
	if _, err := readProfile(strings.NewReader("not json")); err == nil {
		t.Error("garbage input should error")
	}
	if _, err := readProfile(strings.NewReader(`{"benchmark":"", "sample_period":1}`)); err == nil {
		t.Error("invalid profile should fail validation on read")
	}
}

func TestProfileDeterminism(t *testing.T) {
	a := testProfile(t, "raytrace")
	b := testProfile(t, "raytrace")
	if len(a.Segments) != len(b.Segments) {
		t.Fatalf("segment counts differ: %d vs %d", len(a.Segments), len(b.Segments))
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatalf("profiles differ at segment %d", i)
		}
	}
}

func TestStaleProfile(t *testing.T) {
	src := syntheticProfile(10, 100)
	for i := range src.Segments {
		// Distinct durations so a rotation is observable.
		src.Segments[i].Duration = time.Duration(i+1) * time.Millisecond
	}

	// Identities: scale 0/1 and rephase 0 copy the profile exactly.
	for _, id := range []*Profile{StaleProfile(src, 0, 0), StaleProfile(src, 1, 0)} {
		if id.Benchmark != src.Benchmark || id.SamplePeriod != src.SamplePeriod {
			t.Fatal("metadata not preserved")
		}
		for i := range src.Segments {
			if id.Segments[i] != src.Segments[i] {
				t.Fatalf("identity distorted segment %d", i)
			}
		}
	}

	scaled := StaleProfile(src, 0.5, 0)
	for i := range scaled.Segments {
		if want := src.Segments[i].Duration / 2; scaled.Segments[i].Duration != want {
			t.Errorf("segment %d duration = %v, want %v", i, scaled.Segments[i].Duration, want)
		}
		if scaled.Segments[i].Progress != src.Segments[i].Progress {
			t.Errorf("segment %d progress changed under scaling", i)
		}
	}

	rotated := StaleProfile(src, 0, 0.3) // shift = 3 of 10
	for i := range rotated.Segments {
		if want := src.Segments[(i+3)%10]; rotated.Segments[i] != want {
			t.Errorf("segment %d = %+v, want %+v", i, rotated.Segments[i], want)
		}
	}
	if rotated.TotalProgress() != src.TotalProgress() || rotated.TotalDuration() != src.TotalDuration() {
		t.Error("rotation must preserve totals")
	}

	// Distortion never mutates the source.
	if src.Segments[0].Duration != time.Millisecond {
		t.Error("StaleProfile mutated its input")
	}
	if err := StaleProfile(src, 0.001, 0.7).Validate(); err != nil {
		t.Errorf("extreme but positive distortion must stay valid: %v", err)
	}
}

// readProfile deserializes a JSON profile, as WriteTo writes it, and
// validates it.
func readProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decoding profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
