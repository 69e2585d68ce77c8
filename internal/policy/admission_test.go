package policy

import (
	"strings"
	"testing"

	"dirigent/internal/machine"
	"dirigent/internal/workload"
)

// admissionFixture builds a machine with 1 FG (core 0) + 2 BG (cores 1-2)
// under fine control, leaving cores 3-5 free for admission tests.
type admissionFixture struct {
	m       *machine.Machine
	fc      *FineController
	fgTask  int
	bgTasks []int
}

func newAdmissionFixture(t *testing.T) *admissionFixture {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig())
	fgTask, err := m.Launch("ferret", workload.MustProgram(workload.MustByName("ferret")), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bgTasks []int
	for c := 1; c < 3; c++ {
		id, err := m.Launch("bwaves", workload.MustProgram(workload.MustByName("bwaves")), c, 0)
		if err != nil {
			t.Fatal(err)
		}
		bgTasks = append(bgTasks, id)
	}
	fc, err := NewFineController(m, []int{fgTask}, []int{0}, bgTasks, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &admissionFixture{m: m, fc: fc, fgTask: fgTask, bgTasks: bgTasks}
}

// launchOn launches a BG benchmark on the given free core, returning its task.
func (f *admissionFixture) launchOn(t *testing.T, core int) int {
	t.Helper()
	id, err := f.m.Launch("bwaves", workload.MustProgram(workload.MustByName("bwaves")), core, 0)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestRemoveFGByTaskUnknownErrors(t *testing.T) {
	f := newAdmissionFixture(t)
	if err := f.fc.RemoveFGByTask(9999); err == nil {
		t.Fatal("RemoveFGByTask(unknown) must error, not succeed")
	} else if !strings.Contains(err.Error(), "not managed") {
		t.Errorf("error %q should identify the task as unmanaged", err)
	}
	// The managed set must be intact: removing the real FG still works.
	if err := f.fc.RemoveFGByTask(f.fgTask); err != nil {
		t.Fatalf("real FG removal after failed lookup: %v", err)
	}
}

func TestAddBGOnOccupiedCoreRejected(t *testing.T) {
	f := newAdmissionFixture(t)
	task := f.launchOn(t, 3)

	// Claiming the FG core or a managed BG core is rejected before any
	// actuation.
	if err := f.fc.AddBG(task, 0); err == nil {
		t.Error("AddBG on the FG core must be rejected")
	}
	if err := f.fc.AddBG(task, 1); err == nil {
		t.Error("AddBG on an occupied BG core must be rejected")
	} else if !strings.Contains(err.Error(), "core 1") {
		t.Errorf("error %q should name the contested core", err)
	}

	// The rejection must not have registered anything: the honest
	// admission on the free core still works, and exactly once.
	if err := f.fc.AddBG(task, 3); err != nil {
		t.Fatalf("AddBG on free core: %v", err)
	}
	if err := f.fc.AddBG(task, 4); err == nil {
		t.Error("re-admitting an already managed task must be rejected")
	}
}

func TestAddFGOnOccupiedCoreRejected(t *testing.T) {
	f := newAdmissionFixture(t)
	task := f.launchOn(t, 4)
	if err := f.fc.AddFG(task, 1, 1); err == nil {
		t.Error("AddFG on an occupied BG core must be rejected")
	}
	if err := f.fc.AddFG(f.fgTask, 4, 1); err == nil {
		t.Error("AddFG with an already managed task must be rejected")
	}
	if err := f.fc.AddFG(task, 4, 1); err != nil {
		t.Fatalf("AddFG on free core: %v", err)
	}
}

func TestDoubleRemoveErrorsCleanly(t *testing.T) {
	f := newAdmissionFixture(t)
	if err := f.fc.RemoveBG(f.bgTasks[0]); err != nil {
		t.Fatalf("first RemoveBG: %v", err)
	}
	if err := f.fc.RemoveBG(f.bgTasks[0]); err == nil {
		t.Fatal("second RemoveBG of the same task must error")
	}
	if err := f.fc.RemoveFGByTask(f.fgTask); err != nil {
		t.Fatalf("first RemoveFGByTask: %v", err)
	}
	if err := f.fc.RemoveFGByTask(f.fgTask); err == nil {
		t.Fatal("second RemoveFGByTask of the same task must error")
	}
	// The freed core is admissible again.
	task := f.launchOn(t, 5)
	if err := f.fc.AddBG(task, 1); err != nil {
		t.Fatalf("AddBG on freed core: %v", err)
	}
}
