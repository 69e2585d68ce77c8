package load

import (
	"slices"
	"strings"
	"testing"
	"time"

	"dirigent/internal/server"
)

// TestReplayChurn is the end-to-end satellite: synthesize a churn trace,
// replay it against an in-process dirigent-serve, and assert the structural
// invariants — zero leaked tenants after drain, zero drops at a sane pace,
// and QoS samples collected at eviction time.
func TestReplayChurn(t *testing.T) {
	spec := tinySpec()
	tr, err := Synthesize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := StartLocal(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	rep, err := Replay(tr, spec, Options{BaseURL: base, Speed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaked != 0 {
		t.Errorf("leaked %d tenants: %v", rep.Leaked, rep.LeakedIDs)
	}
	if rep.DroppedTotal != 0 || rep.FailedTotal != 0 {
		t.Errorf("dropped %d / failed %d (first: %s)", rep.DroppedTotal, rep.FailedTotal, rep.FailSample)
	}
	creates, _, _ := tr.Counts()
	if i := slices.IndexFunc(rep.API, func(s OpStats) bool { return s.Op == OpCreate }); i < 0 || rep.API[i].N != creates {
		t.Errorf("create stats = %+v, want n=%d", rep.API, creates)
	}
	if rep.QoS == nil || rep.QoS.N == 0 {
		t.Error("no QoS samples collected at eviction")
	}
	for _, render := range []string{rep.Text(), rep.Markdown()} {
		if !strings.Contains(render, "create") {
			t.Errorf("report rendering lost the create row:\n%s", render)
		}
	}
	if _, err := rep.JSON(); err != nil {
		t.Errorf("JSON rendering: %v", err)
	}
}

// A strangled replay (one op in flight, zero late budget) must shed load as
// drops — never block — and the drain must still leave the server empty.
func TestReplayStrangledStillDrains(t *testing.T) {
	spec := tinySpec()
	tr, err := Synthesize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := StartLocal(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stop() }()

	rep, err := Replay(tr, spec, Options{
		BaseURL:     base,
		Speed:       20,
		MaxInFlight: 1,
		LateBudget:  time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedTotal == 0 {
		t.Error("zero late budget dropped nothing")
	}
	if rep.Leaked != 0 {
		t.Errorf("leaked %d tenants under drops: %v", rep.Leaked, rep.LeakedIDs)
	}
}

func TestReplayValidation(t *testing.T) {
	spec := tinySpec()
	tr, err := Synthesize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(tr, spec, Options{}); err == nil {
		t.Error("missing base URL accepted")
	}
	// A trace referencing templates the spec lacks must fail before any
	// HTTP traffic.
	bad := spec
	bad.Tenants = spec.Tenants[1:]
	if _, err := Replay(tr, bad, Options{BaseURL: "http://127.0.0.1:1"}); err == nil ||
		!strings.Contains(err.Error(), "unknown template") {
		t.Errorf("foreign template not rejected: %v", err)
	}
}
