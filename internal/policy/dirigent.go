package policy

import (
	"errors"
	"fmt"

	"dirigent/internal/sim"
)

// Dirigent is the paper's policy: the fine time scale controller (per-core
// DVFS grades and BG pausing, §4.3) coupled with the coarse time scale LLC
// way partitioner when Partitioning is enabled. It is the extracted form
// of the pre-policy-engine runtime wiring — construction order, decision
// cadence, and the coarse window handshake are preserved exactly, so runs
// are byte-identical to the original fine+coarse pair.
type Dirigent struct {
	opts   Options
	fine   *FineController
	coarse *CoarseController
}

// NewDirigent returns an un-bound Dirigent policy; the controllers are
// built at Init, once the machine and task sets exist.
func NewDirigent(o Options) *Dirigent { return &Dirigent{opts: o} }

// Name implements Policy.
func (d *Dirigent) Name() string { return NameDirigent }

// Capabilities implements Policy.
func (d *Dirigent) Capabilities() Capabilities {
	return Capabilities{DVFS: true, Pause: true, LLCWays: d.opts.Partitioning}
}

// Init builds the fine controller (pinning every managed core to the top
// grade) and, with Partitioning, the coarse controller (applying the
// initial partition) — in that order, matching the original runtime
// assembly.
func (d *Dirigent) Init(b Binding) error {
	fine, err := NewFineController(b.Machine, b.FGTasks, b.FGCores, b.BGTasks, b.BGCores, b.Recorder)
	if err != nil {
		return err
	}
	for i, s := range b.FGStreams {
		fine.fgStreams[i] = s
	}
	d.fine = fine

	if d.opts.Partitioning {
		if b.LLC == nil {
			return errors.New("policy: dirigent partitioning needs an LLC binding")
		}
		coarse, err := NewCoarseController(b.LLC, b.FGClass, b.BGClass, b.Recorder)
		if err != nil {
			return err
		}
		d.coarse = coarse
	}
	return nil
}

// Tick implements Policy: one fine time scale decision.
func (d *Dirigent) Tick(now sim.Time, status []FGStatus) error {
	return d.fine.Decide(now, status)
}

// OnExecution feeds the coarse controller's execution window and runs a
// partition adjustment when one is due, consuming and resetting the fine
// controller's decision window (the §4.3 heuristic-3 handshake).
func (d *Dirigent) OnExecution(stream int, e ExecutionSample) {
	if d.coarse == nil {
		return
	}
	d.coarse.RecordExecution(e.Duration.Seconds(), e.LLCMisses, e.Missed)
	if d.coarse.Due() {
		if _, err := d.coarse.Adjust(e.End, d.fine.Window()); err != nil {
			panic(fmt.Sprintf("policy: coarse adjust: %v", err))
		}
		d.fine.ResetWindow()
	}
}

// AddFG implements Policy.
func (d *Dirigent) AddFG(task, core, stream int) error { return d.fine.AddFG(task, core, stream) }

// RemoveFG implements Policy.
func (d *Dirigent) RemoveFG(task int) error { return d.fine.RemoveFGByTask(task) }

// AddBG implements Policy.
func (d *Dirigent) AddBG(task, core int) error { return d.fine.AddBG(task, core) }

// RemoveBG implements Policy.
func (d *Dirigent) RemoveBG(task int) error { return d.fine.RemoveBG(task) }

// Window implements Policy.
func (d *Dirigent) Window() FineWindow { return d.fine.Window() }

// ResetWindow implements Policy.
func (d *Dirigent) ResetWindow() { d.fine.ResetWindow() }

// Fine exposes the fine controller (telemetry and test access).
func (d *Dirigent) Fine() *FineController { return d.fine }

// Coarse exposes the coarse controller, nil when partitioning is off.
func (d *Dirigent) Coarse() *CoarseController { return d.coarse }
