package load

import (
	"bytes"
	"path/filepath"
	"testing"
)

// tinySpec is a small but fully featured spec: bursty arrivals, two
// weighted templates across configurations, retargets, and a max_live cap
// tight enough to exercise suppression.
func tinySpec() Spec {
	return Spec{
		Name:             "load-tiny",
		Seed:             1905,
		DurationS:        3,
		Arrival:          ArrivalSpec{Model: ModelBursty, RatePerS: 4, BurstFactor: 2, OnS: 0.5, OffS: 0.5},
		Lifetime:         LifetimeSpec{MeanS: 1, MinS: 0.1},
		RetargetRatePerS: 1,
		MaxLive:          6,
		Tenants: []TenantTemplate{
			{
				Name: "rt", Weight: 3,
				Mix:        MixSpec{FG: []string{"ferret"}, BG: []string{"pca"}},
				TargetMS:   []float64{1500},
				Executions: 6,
			},
			{
				Name: "base", Weight: 1, Config: "Baseline",
				Mix:        MixSpec{FG: []string{"ferret"}, BG: []string{"pca"}},
				TargetMS:   []float64{1500},
				Executions: 6,
			},
		},
	}
}

// Determinism is the gated property: the same spec and seed must serialize
// to byte-identical JSONL every time, on every platform, and Seed+1 must
// give a different trace so the comparison is never vacuous. The inputs
// are tinySpec and every shipped spec under loadspecs/.
func TestSynthesizeDeterministic(t *testing.T) {
	specs := []Spec{tinySpec()}
	paths, err := filepath.Glob(filepath.Join("..", "..", "loadspecs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped specs under loadspecs/")
	}
	for _, path := range paths {
		spec, err := LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			tr1, err := Synthesize(spec, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			tr2, err := Synthesize(spec, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(t, tr1), encode(t, tr2)) {
				t.Fatal("same seed produced different traces")
			}
			if len(tr1.Events) == 0 {
				t.Fatal("trace is empty")
			}
			other, err := Synthesize(spec, spec.Seed+1)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(encode(t, tr1), encode(t, other)) {
				t.Fatal("different seeds produced identical traces — the comparison is vacuous")
			}
		})
	}
}

// Seed 0 falls back to the spec's own seed.
func TestSynthesizeDefaultSeed(t *testing.T) {
	spec := tinySpec()
	byZero, err := Synthesize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	bySpec, err := Synthesize(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, byZero), encode(t, bySpec)) {
		t.Fatal("seed 0 did not fall back to the spec seed")
	}
}

// A written trace must read back equal, byte-for-byte after re-encoding.
func TestTraceRoundTrip(t *testing.T) {
	tr, err := Synthesize(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, tr), encode(t, back)) {
		t.Fatal("trace changed across a write/read round trip")
	}
	if back.Spec != tr.Spec || back.Seed != tr.Seed || back.Suppressed != tr.Suppressed {
		t.Errorf("header fields lost: %+v vs %+v", back, tr)
	}
}

// A truncated trace must be rejected (the header carries the event count).
func TestReadTraceTruncated(t *testing.T) {
	tr, err := Synthesize(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	full := encode(t, tr)
	cut := bytes.TrimRight(full, "\n")
	cut = cut[:bytes.LastIndexByte(cut, '\n')+1]
	if _, err := ReadTrace(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestSynthesizeStructure(t *testing.T) {
	spec := tinySpec()
	tr, err := Synthesize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	durUS := int64(spec.DurationS * 1e6)
	live := map[string]bool{}
	peak := 0
	var prev int64
	for i, ev := range tr.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.AtUS < prev {
			t.Fatalf("timestamps not monotone at seq %d: %d < %d", i, ev.AtUS, prev)
		}
		prev = ev.AtUS
		if ev.AtUS < 0 || ev.AtUS > durUS {
			t.Fatalf("event %d at %d outside [0, %d]", i, ev.AtUS, durUS)
		}
		switch ev.Op {
		case OpCreate:
			if live[ev.Tenant] {
				t.Fatalf("tenant %s created twice", ev.Tenant)
			}
			if spec.Template(ev.Template) == nil {
				t.Fatalf("create %s references unknown template %q", ev.Tenant, ev.Template)
			}
			live[ev.Tenant] = true
			if len(live) > peak {
				peak = len(live)
			}
		case OpRetarget:
			if !live[ev.Tenant] {
				t.Fatalf("retarget for non-live tenant %s", ev.Tenant)
			}
			if ev.TargetUS <= 0 {
				t.Fatalf("retarget %s with target %d", ev.Tenant, ev.TargetUS)
			}
		case OpEvict:
			if !live[ev.Tenant] {
				t.Fatalf("evict for non-live tenant %s", ev.Tenant)
			}
			delete(live, ev.Tenant)
		default:
			t.Fatalf("unknown op %q", ev.Op)
		}
	}
	// Every synthesized tenant is evicted within the trace.
	if len(live) != 0 {
		t.Errorf("%d tenants never evicted: %v", len(live), live)
	}
	if spec.MaxLive > 0 && peak > spec.MaxLive {
		t.Errorf("peak live %d exceeds max_live %d", peak, spec.MaxLive)
	}
	creates, _, evicts := tr.Counts()
	if creates == 0 || creates != evicts {
		t.Errorf("creates %d, evicts %d — want equal and nonzero", creates, evicts)
	}
}

// Tightening max_live must suppress arrivals (and count them) rather than
// silently over-admitting.
func TestSynthesizeMaxLive(t *testing.T) {
	spec := tinySpec()
	spec.MaxLive = 2
	tr, err := Synthesize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := tinySpec()
	uncapped.MaxLive = 0
	full, err := Synthesize(uncapped, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, _, _ := tr.Counts()
	all, _, _ := full.Counts()
	if capped >= all {
		t.Fatalf("max_live 2 admitted %d creates, uncapped admits %d", capped, all)
	}
	if tr.Suppressed != all-capped {
		t.Errorf("suppressed %d, want %d", tr.Suppressed, all-capped)
	}
}

// Retargets are only generated for runtime configurations; a spec with only
// Baseline templates must synthesize none.
func TestSynthesizeNoRetargetForBaseline(t *testing.T) {
	spec := tinySpec()
	for i := range spec.Tenants {
		spec.Tenants[i].Config = "Baseline"
	}
	tr, err := Synthesize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, retargets, _ := tr.Counts(); retargets != 0 {
		t.Fatalf("baseline-only spec synthesized %d retargets", retargets)
	}
}

func TestSynthesizeRejectsInvalidSpec(t *testing.T) {
	spec := tinySpec()
	spec.DurationS = -1
	if _, err := Synthesize(spec, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// encode returns the trace's canonical JSONL bytes.
func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
