package policy

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegistryNamesSorted(t *testing.T) {
	want := []string{NameCORDLike, NameDirigent, NameRTGang}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		if !Valid(n) {
			t.Errorf("Valid(%q) = false, want true", n)
		}
	}
	if Valid("nope") {
		t.Error(`Valid("nope") = true, want false`)
	}
}

func TestNewEmptyNameDefaultsToDirigent(t *testing.T) {
	p, err := New("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != NameDirigent {
		t.Errorf("New(\"\").Name() = %q, want %q", p.Name(), NameDirigent)
	}
}

func TestNewUnknownListsValidNames(t *testing.T) {
	_, err := New("bogus", Options{})
	if err == nil {
		t.Fatal("New(bogus) must error")
	}
	msg := err.Error()
	for _, n := range Names() {
		if !strings.Contains(msg, n) {
			t.Errorf("error %q should list valid policy %q", msg, n)
		}
	}
}

func TestNewReturnsFreshInstances(t *testing.T) {
	a, _ := New(NameRTGang, Options{})
	b, _ := New(NameRTGang, Options{})
	if a == b {
		t.Error("New must build a fresh instance per call")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register must panic")
		}
	}()
	Register(NameDirigent, func(o Options) Policy { return NewDirigent(o) })
}

func TestRegisterEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register with empty name must panic")
		}
	}()
	Register("", nil)
}

// TestPolicyCapabilities pins each policy's declared actuator set — the
// runtime keys class setup and reporting off these.
func TestPolicyCapabilities(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want Capabilities
	}{
		{NameDirigent, Options{}, Capabilities{}},
		{NameDirigent, Options{Partitioning: true}, Capabilities{LLCWays: true}},
		{NameRTGang, Options{Partitioning: true}, Capabilities{}},
		{NameCORDLike, Options{}, Capabilities{LLCWays: true}},
	}
	for _, c := range cases {
		p, err := New(c.name, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Capabilities(); got != c.want {
			t.Errorf("%s%+v capabilities = %+v, want %+v", c.name, c.opts, got, c.want)
		}
	}
}
