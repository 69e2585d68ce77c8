package policy

import (
	"errors"
	"fmt"

	"dirigent/internal/machine"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// RTGang implements RT-Gang-style scheduling: exactly one FG "gang" runs
// at a time at the machine's top frequency while every other FG task is
// paused, and BG tasks are throttled to the lowest frequency level for the
// whole run ("best-effort tasks on idle cycles"). Gangs rotate round-robin
// at execution boundaries, so each FG stream gets exclusive use of the
// machine's fast cycles for one full execution before yielding.
//
// The policy is deliberately prediction-free: it ignores Tick status and
// enforces its static gang invariant instead, retrying any actuation an
// injected fault dropped. Single-FG mixes degenerate to "FG at max, BG
// floored" (high QoS, low BG throughput); multi-FG mixes serialize the
// foregrounds, trading FG latency (≈ n× standalone) for strict isolation.
type RTGang struct {
	m   *machine.Machine
	rec telemetry.Recorder

	fgTasks   []int
	fgCores   []int
	fgStreams []int
	bgTasks   []int
	bgCores   []int

	// gang indexes fgTasks: the one FG task currently allowed to run.
	gang int

	windowDecisions   int
	windowSuppressed  int
	windowActFailures int
}

// NewRTGang returns an un-bound RT-Gang policy.
func NewRTGang() *RTGang { return &RTGang{} }

// Name implements Policy.
func (g *RTGang) Name() string { return NameRTGang }

// Capabilities implements Policy: DVFS pinning plus FG gang pausing; no
// cache partitioning.
func (g *RTGang) Capabilities() Capabilities {
	return Capabilities{}
}

// Init pins FG cores to the top level and BG cores to the bottom, then
// pauses every FG task except the first gang. Dropped actuations are
// tolerated — Tick re-asserts the invariant until it sticks.
func (g *RTGang) Init(b Binding) error {
	if b.Machine == nil {
		return errors.New("policy: rtgang needs a machine")
	}
	if len(b.FGTasks) == 0 {
		return errors.New("policy: rtgang needs at least one FG task")
	}
	g.m = b.Machine
	g.rec = telemetry.OrNop(b.Recorder)
	g.fgTasks = append([]int(nil), b.FGTasks...)
	g.fgCores = append([]int(nil), b.FGCores...)
	g.fgStreams = append([]int(nil), b.FGStreams...)
	g.bgTasks = append([]int(nil), b.BGTasks...)
	g.bgCores = append([]int(nil), b.BGCores...)
	g.gang = 0

	top := g.m.MaxFreqLevel()
	for _, c := range g.fgCores {
		if err := g.setLevel(c, top); err != nil {
			return err
		}
	}
	for _, c := range g.bgCores {
		if err := g.setLevel(c, 0); err != nil {
			return err
		}
	}
	for i, t := range g.fgTasks {
		if i == g.gang {
			continue
		}
		if err := g.m.Pause(t); err != nil && !errors.Is(err, machine.ErrActuation) {
			return err
		}
	}
	return nil
}

// setLevel requests a frequency level, tolerating a dropped actuation.
func (g *RTGang) setLevel(core, level int) error {
	if err := g.m.SetFreqLevel(core, level); err != nil && !errors.Is(err, machine.ErrActuation) {
		return err
	}
	return nil
}

// Tick enforces the gang invariant: the active gang runs unpaused at the
// top level, every other FG task is paused, and BG cores stay floored.
// Only divergent state is actuated, so a fault-free steady state issues no
// machine calls.
func (g *RTGang) Tick(now sim.Time, status []FGStatus) error {
	g.windowDecisions++
	// BG pinned to the bottom level counts as suppressed every decision —
	// that is the policy's entire bargain.
	if len(g.bgCores) > 0 {
		g.windowSuppressed++
	}
	top := g.m.MaxFreqLevel()
	for i, t := range g.fgTasks {
		wantPaused := i != g.gang
		paused, err := g.m.Paused(t)
		if err != nil {
			continue // task gone mid-tick; admission hooks will catch up
		}
		if paused != wantPaused {
			if wantPaused {
				err = g.m.Pause(t)
			} else {
				err = g.m.Resume(t)
			}
			if err != nil {
				if errors.Is(err, machine.ErrActuation) {
					g.windowActFailures++
					g.emitAction(now, telemetry.ActionActuationFail, t, g.fgCores[i], g.fgStreams[i])
					continue
				}
				return err
			}
		}
		if l, err := g.m.FreqLevel(g.fgCores[i]); err == nil && l != top && !g.setLevelCounted(now, g.fgCores[i], top) {
			continue
		}
	}
	for _, c := range g.bgCores {
		if l, err := g.m.FreqLevel(c); err == nil && l != 0 {
			g.setLevelCounted(now, c, 0)
		}
	}
	if g.rec.Enabled(telemetry.KindFineDecision) {
		g.rec.Record(telemetry.Event{
			Kind: telemetry.KindFineDecision, At: now,
			Reason: telemetry.ReasonGangActive, Streams: len(status),
			Suppressed: len(g.bgCores) > 0,
		})
	}
	return nil
}

// setLevelCounted is setLevel with fault accounting for the re-assert path.
func (g *RTGang) setLevelCounted(now sim.Time, core, level int) bool {
	if err := g.m.SetFreqLevel(core, level); err != nil {
		if errors.Is(err, machine.ErrActuation) {
			g.windowActFailures++
			g.emitAction(now, telemetry.ActionActuationFail, -1, core, -1)
			return false
		}
		panic(fmt.Sprintf("policy: rtgang set level: %v", err))
	}
	return true
}

func (g *RTGang) emitAction(now sim.Time, a telemetry.Action, task, core, stream int) {
	if g.rec.Enabled(telemetry.KindFineAction) {
		g.rec.Record(telemetry.Event{
			Kind: telemetry.KindFineAction, At: now,
			Action: a, Task: task, Core: core, Stream: stream,
		})
	}
}

// OnExecution rotates the gang when the active gang finishes an execution.
// Actuations are requested optimistically here; a dropped pause/resume is
// healed by the next Tick.
func (g *RTGang) OnExecution(stream int, e ExecutionSample) {
	if len(g.fgTasks) < 2 {
		return
	}
	if g.gang >= len(g.fgStreams) || g.fgStreams[g.gang] != stream {
		return
	}
	prev := g.gang
	g.gang = (g.gang + 1) % len(g.fgTasks)
	if err := g.m.Pause(g.fgTasks[prev]); err != nil && !errors.Is(err, machine.ErrActuation) {
		panic(fmt.Sprintf("policy: rtgang pause: %v", err))
	}
	if err := g.m.Resume(g.fgTasks[g.gang]); err != nil && !errors.Is(err, machine.ErrActuation) {
		panic(fmt.Sprintf("policy: rtgang resume: %v", err))
	}
	g.emitAction(e.End, telemetry.ActionGangSwitch, g.fgTasks[g.gang], g.fgCores[g.gang], g.fgStreams[g.gang])
}

// AddFG places a new FG task at the back of the rotation, paused; its core
// is pinned to the top level.
func (g *RTGang) AddFG(task, core, stream int) error {
	if err := g.setLevel(core, g.m.MaxFreqLevel()); err != nil {
		return err
	}
	g.fgTasks = append(g.fgTasks, task)
	g.fgCores = append(g.fgCores, core)
	g.fgStreams = append(g.fgStreams, stream)
	if err := g.m.Pause(task); err != nil && !errors.Is(err, machine.ErrActuation) {
		return err
	}
	return nil
}

// RemoveFG drops a task from the rotation; if it was the active gang the
// next task in line takes over.
func (g *RTGang) RemoveFG(task int) error {
	for i, t := range g.fgTasks {
		if t != task {
			continue
		}
		g.fgTasks = append(g.fgTasks[:i], g.fgTasks[i+1:]...)
		g.fgCores = append(g.fgCores[:i], g.fgCores[i+1:]...)
		g.fgStreams = append(g.fgStreams[:i], g.fgStreams[i+1:]...)
		switch {
		case len(g.fgTasks) == 0:
			g.gang = 0
		case i < g.gang:
			g.gang--
		case i == g.gang:
			g.gang %= len(g.fgTasks)
			if err := g.m.Resume(g.fgTasks[g.gang]); err != nil && !errors.Is(err, machine.ErrActuation) {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("policy: FG task %d not managed", task)
}

// AddBG floors the new worker's core; BG never runs fast under RT-Gang.
func (g *RTGang) AddBG(task, core int) error {
	if err := g.setLevel(core, 0); err != nil {
		return err
	}
	g.bgTasks = append(g.bgTasks, task)
	g.bgCores = append(g.bgCores, core)
	return nil
}

// RemoveBG forgets a BG core.
func (g *RTGang) RemoveBG(task int) error {
	for i, t := range g.bgTasks {
		if t == task {
			g.bgTasks = append(g.bgTasks[:i], g.bgTasks[i+1:]...)
			g.bgCores = append(g.bgCores[:i], g.bgCores[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("policy: BG task %d not managed", task)
}

// Window implements Policy.
func (g *RTGang) Window() FineWindow {
	return FineWindow{
		Decisions:         g.windowDecisions,
		BGSuppressed:      g.windowSuppressed,
		ActuationFailures: g.windowActFailures,
	}
}

// ResetWindow implements Policy.
func (g *RTGang) ResetWindow() {
	g.windowDecisions = 0
	g.windowSuppressed = 0
	g.windowActFailures = 0
}
