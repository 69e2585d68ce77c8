package policy

import (
	"errors"
	"fmt"
	"time"

	"dirigent/internal/machine"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// Default fine-control parameters from §4.3.
const (
	// DefaultAheadMargin: yield FG resources only when the FG is predicted
	// ahead of its target by more than this margin. The paper uses the
	// predictor's typical error (~2%) as the safety margin against
	// prematurely slowing an FG task; we widen it slightly to 4% so the
	// controller's steady state hovers a few percent ahead of the deadline
	// rather than exactly on it (see also DefaultBehindMargin).
	DefaultAheadMargin = 0.04
	// DefaultBehindMargin: prioritize the FG when its predicted slack falls
	// below this fraction of the target. A small positive margin makes the
	// steady state sit ahead of the deadline by at least the predictor's
	// typical error, which is what keeps the success rate above 95% instead
	// of ~50% (hovering exactly on the deadline loses every coin flip).
	DefaultBehindMargin = 0.015
	// DefaultPauseMargin: pause BG tasks only when the FG is predicted more
	// than 10% behind its target, because pausing is the most intrusive
	// action.
	DefaultPauseMargin = 0.10
	// DefaultDecisionSegments: make control decisions every 5 prediction
	// segments, because control actions are not instantaneous.
	DefaultDecisionSegments = 5
	// DefaultSpeedupHoldoff: consecutive "ahead" decisions required before
	// each one-grade BG speed-up. Throttling reacts immediately; releasing
	// is rate-limited. Without this asymmetry the controller enters a
	// limit cycle — a fast execution releases BG fully within one
	// execution, the next execution starts against unthrottled BG and
	// misses by a hair, BG is floored again, and the pattern repeats every
	// three executions.
	DefaultSpeedupHoldoff = 20
)

// GradesForLevels returns the DVFS grades Dirigent uses on a ladder of
// levels levels, as indices into the machine's level table: up to five
// equi-spaced level indices spanning [0, levels-1]. Ladders with five or
// fewer levels use every level; the paper's nine-level ladder yields
// {0, 2, 4, 6, 8} (§5.1: "Dirigent uses just 5 equi-spaced frequencies",
// 1.2/1.4/1.6/1.8/2.0 GHz).
func GradesForLevels(levels int) []int {
	if levels <= 0 {
		return nil
	}
	if levels <= 5 {
		g := make([]int, levels)
		for i := range g {
			g[i] = i
		}
		return g
	}
	g := make([]int, 5)
	for i := range g {
		g[i] = i * (levels - 1) / 4
	}
	return g
}

// FGStatus is the fine controller's per-stream input at a decision point.
type FGStatus struct {
	// Predicted is the predicted completion time of the in-flight
	// execution.
	Predicted sim.Time
	// Deadline is the absolute completion target of the in-flight
	// execution.
	Deadline sim.Time
	// Target is the relative latency target (deadline − execution start),
	// used to normalize slack.
	Target time.Duration
}

// slack returns (deadline − predicted)/target: positive when ahead.
func (s FGStatus) slack() float64 {
	if s.Target <= 0 {
		return 0
	}
	return float64(s.Deadline-s.Predicted) / float64(s.Target)
}

// FineController implements Dirigent's fine time scale policy (§4.3): at
// each decision point it compares predicted FG completion against the
// deadline and shifts resources between FG and BG tasks using per-core DVFS
// and task pausing.
type FineController struct {
	m *machine.Machine
	// grades are the machine frequency-level indices the controller steps
	// through, ascending: GradesForLevels of the machine's ladder.
	grades []int

	fgTasks []int // task IDs, parallel to the runtime's active FG streams
	fgCores []int
	// fgStreams holds each managed FG task's stable stream index, used to
	// label telemetry: with mid-run admission/removal the controller's
	// compact task list no longer coincides with stream numbering.
	fgStreams []int
	bgTasks   []int
	bgCores   []int

	// missSnapshot holds each BG task's cumulative LLC misses at the last
	// decision, for the intrusiveness ranking ("the number of LLC load
	// misses a task generates", §4.3).
	missSnapshot map[int]float64

	// rec receives decision/action events; never nil. Richer decision
	// telemetry (Fig. 12-style analyses) lives entirely in the event
	// stream — aggregate with telemetry.Aggregator.
	rec telemetry.Recorder

	// The coarse controller's heuristic 3 consumes a windowed suppression
	// fraction (§4.3); these counters are control state, reset each coarse
	// window, not telemetry. windowActFailures counts actuation requests
	// (DVFS/pause/resume) the machine dropped — under fault injection those
	// are resource shifts the FG asked for and did not get, so heuristic 3
	// folds them into the suppression fraction.
	windowDecisions   int
	windowSuppressed  int
	windowActFailures int

	// aheadStreak counts consecutive all-ahead decisions, for the BG
	// speed-up hold-off.
	aheadStreak int
}

// NewFineController validates inputs and builds the controller over the
// grades of the machine's DVFS ladder (GradesForLevels). rec receives
// decision and action events; nil means no telemetry.
func NewFineController(m *machine.Machine, fgTasks, fgCores, bgTasks, bgCores []int, rec telemetry.Recorder) (*FineController, error) {
	if m == nil {
		return nil, errors.New("policy: nil machine")
	}
	if len(fgTasks) == 0 || len(fgTasks) != len(fgCores) {
		return nil, fmt.Errorf("policy: FG task/core lists invalid (%d tasks, %d cores)", len(fgTasks), len(fgCores))
	}
	if len(bgTasks) != len(bgCores) {
		return nil, fmt.Errorf("policy: BG task/core lists invalid (%d tasks, %d cores)", len(bgTasks), len(bgCores))
	}
	fc := &FineController{
		m:            m,
		grades:       GradesForLevels(m.MaxFreqLevel() + 1),
		fgTasks:      append([]int(nil), fgTasks...),
		fgCores:      append([]int(nil), fgCores...),
		fgStreams:    make([]int, len(fgTasks)),
		bgTasks:      append([]int(nil), bgTasks...),
		bgCores:      append([]int(nil), bgCores...),
		missSnapshot: map[int]float64{},
		rec:          telemetry.OrNop(rec),
	}
	for i := range fc.fgStreams {
		fc.fgStreams[i] = i
	}
	// Pin every managed core to a grade (the top one) so grade stepping is
	// well-defined. A dropped actuation (injected fault) is tolerated: the
	// core snaps to a grade at the first successful transition.
	top := fc.grades[len(fc.grades)-1]
	for _, c := range append(append([]int(nil), fgCores...), bgCores...) {
		if err := m.SetFreqLevel(c, top); err != nil && !errors.Is(err, machine.ErrActuation) {
			return nil, err
		}
	}
	return fc, nil
}

// gradeOf maps a core's current level to its grade index; levels between
// grades (not produced by this controller) snap down.
func (fc *FineController) gradeOf(core int) int {
	level, err := fc.m.FreqLevel(core)
	if err != nil {
		return 0
	}
	g := 0
	for i, l := range fc.grades {
		if level >= l {
			g = i
		}
	}
	return g
}

// setGrade requests a core's DVFS grade and reports whether the actuation
// was accepted. A request dropped by an injected fault (machine.ErrActuation)
// is surfaced — counted in the coarse window and emitted as an
// ActionActuationFail event — and retried naturally at the next decision
// that still wants it. Any other error is a logic bug and panics.
func (fc *FineController) setGrade(now sim.Time, core, grade int) bool {
	if grade < 0 {
		grade = 0
	}
	if grade >= len(fc.grades) {
		grade = len(fc.grades) - 1
	}
	if err := fc.m.SetFreqLevel(core, fc.grades[grade]); err != nil {
		if errors.Is(err, machine.ErrActuation) {
			fc.windowActFailures++
			fc.emitAction(now, telemetry.ActionActuationFail, -1, core, -1)
			return false
		}
		panic(fmt.Sprintf("policy: setGrade: %v", err))
	}
	return true
}

// emitAction records one resource-shift action on the telemetry bus. Group
// actions (BG throttle/speedup/resume, which affect every active BG core at
// once) pass -1 identities.
func (fc *FineController) emitAction(now sim.Time, a telemetry.Action, task, core, stream int) {
	if fc.rec.Enabled(telemetry.KindFineAction) {
		fc.rec.Record(telemetry.Event{
			Kind: telemetry.KindFineAction, At: now,
			Action: a, Task: task, Core: core, Stream: stream,
		})
	}
}

// Decide runs one fine time scale decision (§4.3). status must be parallel
// to the FG task list given at construction.
func (fc *FineController) Decide(now sim.Time, status []FGStatus) error {
	if len(status) != len(fc.fgTasks) {
		return fmt.Errorf("policy: %d statuses for %d FG tasks", len(status), len(fc.fgTasks))
	}
	if len(status) == 0 {
		return nil
	}
	fc.windowDecisions++

	topGrade := len(fc.grades) - 1
	var behind, ahead []int
	worst := 0
	for i, st := range status {
		s := st.slack()
		if s < DefaultBehindMargin {
			behind = append(behind, i)
		} else if s > DefaultAheadMargin {
			ahead = append(ahead, i)
		}
		if st.slack() < status[worst].slack() {
			worst = i
		}
	}

	switch {
	case len(behind) > 0:
		fc.aheadStreak = 0
		// Lagging FG tasks: boost them to max frequency.
		allWereMax := true
		for _, i := range behind {
			if fc.gradeOf(fc.fgCores[i]) != topGrade {
				allWereMax = false
				if fc.setGrade(now, fc.fgCores[i], topGrade) {
					fc.emitAction(now, telemetry.ActionFGMaxBoost, fc.fgTasks[i], fc.fgCores[i], fc.fgStreams[i])
				}
			}
		}
		if allWereMax {
			// Already at max: throttle BG one grade.
			throttled := false
			for j, c := range fc.bgCores {
				if fc.paused(fc.bgTasks[j]) {
					continue
				}
				if g := fc.gradeOf(c); g > 0 && fc.setGrade(now, c, g-1) {
					throttled = true
				}
			}
			if throttled {
				fc.emitAction(now, telemetry.ActionBGThrottle, -1, -1, -1)
			} else if status[worst].slack() < -DefaultPauseMargin {
				// BG already at minimum frequency and the FG is badly
				// behind: pause the most intrusive active BG.
				fc.pauseMostIntrusive(now)
			}
		}
		// Multi-FG rule: FG tasks expected to finish early are throttled
		// down individually even while others lag.
		for _, i := range ahead {
			if g := fc.gradeOf(fc.fgCores[i]); g > 0 && fc.setGrade(now, fc.fgCores[i], g-1) {
				fc.emitAction(now, telemetry.ActionFGThrottle, fc.fgTasks[i], fc.fgCores[i], fc.fgStreams[i])
			}
		}

	case len(ahead) == len(status):
		// Everyone comfortably ahead: give resources back to BG in the
		// paper's order — resume paused, then speed up throttled, then
		// throttle the FG itself. BG releases are rate-limited by the
		// hold-off (FG-protecting actions above never are): releasing as
		// fast as the 25 ms decision cadence lets a single fast execution
		// unthrottle all BG tasks, which dooms the next execution and
		// locks the controller into a miss/recover limit cycle. FG
		// self-throttling needs no hold-off — it is reversed instantly by
		// the boost path — and runs once nothing is left to release, which
		// is what converts the remaining slack into on-time completions.
		fc.aheadStreak++
		anyPaused := false
		for _, t := range fc.bgTasks {
			if fc.paused(t) {
				anyPaused = true
				break
			}
		}
		anyThrottled := false
		for j, c := range fc.bgCores {
			if fc.paused(fc.bgTasks[j]) {
				continue
			}
			if fc.gradeOf(c) < topGrade {
				anyThrottled = true
				break
			}
		}
		if anyPaused || anyThrottled {
			if fc.aheadStreak < DefaultSpeedupHoldoff {
				break
			}
			fc.aheadStreak = 0
			resumed, resumeFailures := fc.resumeAllPaused(now)
			if resumeFailures > 0 {
				// A dropped resume leaves BG tasks stuck paused; retry at the
				// very next all-ahead decision instead of waiting out a full
				// hold-off.
				fc.aheadStreak = DefaultSpeedupHoldoff
			}
			if resumed {
				fc.emitAction(now, telemetry.ActionBGResume, -1, -1, -1)
				break
			}
			if resumeFailures > 0 {
				break
			}
			sped := false
			for j, c := range fc.bgCores {
				if fc.paused(fc.bgTasks[j]) {
					continue
				}
				if g := fc.gradeOf(c); g < topGrade && fc.setGrade(now, c, g+1) {
					sped = true
				}
			}
			if sped {
				fc.emitAction(now, telemetry.ActionBGSpeedup, -1, -1, -1)
			}
			break
		}
		for _, i := range ahead {
			if g := fc.gradeOf(fc.fgCores[i]); g > 0 && fc.setGrade(now, fc.fgCores[i], g-1) {
				fc.emitAction(now, telemetry.ActionFGThrottle, fc.fgTasks[i], fc.fgCores[i], fc.fgStreams[i])
			}
		}
	}

	// Is BG heavily suppressed? The coarse controller's heuristic 3 (§4.3)
	// reads this as "BG tasks are heavily throttled and their utilization
	// of core resources is low": any task paused, or the active tasks'
	// mean DVFS grade in the lower 60% of the range.
	suppressed := false
	if len(fc.bgCores) > 0 {
		pausedAny := false
		gradeSum, active := 0, 0
		for j, c := range fc.bgCores {
			if fc.paused(fc.bgTasks[j]) {
				pausedAny = true
				continue
			}
			gradeSum += fc.gradeOf(c)
			active++
		}
		suppressed = pausedAny
		if !suppressed && active > 0 {
			suppressed = float64(gradeSum)/float64(active) < 0.6*float64(topGrade)
		}
		if suppressed {
			fc.windowSuppressed++
		}
	}

	// The decision event carries the triggering predicate: how many
	// streams were behind/ahead, the worst normalized slack, and whether
	// BG ended the decision suppressed.
	if fc.rec.Enabled(telemetry.KindFineDecision) {
		reason := telemetry.ReasonSteady
		switch {
		case len(behind) > 0:
			reason = telemetry.ReasonFGBehind
		case len(ahead) == len(status):
			reason = telemetry.ReasonAllAhead
		}
		fc.rec.Record(telemetry.Event{
			Kind: telemetry.KindFineDecision, At: now,
			Reason: reason, Behind: len(behind), Ahead: len(ahead),
			Streams: len(status), Slack: status[worst].slack(),
			Suppressed: suppressed,
		})
	}

	// Refresh the intrusiveness snapshot.
	for _, t := range fc.bgTasks {
		fc.missSnapshot[t] = fc.m.Counters().Task(t).LLCMisses
	}
	return nil
}

func (fc *FineController) paused(task int) bool {
	p, err := fc.m.Paused(task)
	return err == nil && p
}

// pauseMostIntrusive pauses the active BG task with the highest LLC miss
// count since the last decision.
func (fc *FineController) pauseMostIntrusive(now sim.Time) {
	bestIdx := -1
	bestMisses := -1.0
	for j, t := range fc.bgTasks {
		if fc.paused(t) {
			continue
		}
		delta := fc.m.Counters().Task(t).LLCMisses - fc.missSnapshot[t]
		if delta > bestMisses {
			bestMisses = delta
			bestIdx = j
		}
	}
	if bestIdx >= 0 {
		if err := fc.m.Pause(fc.bgTasks[bestIdx]); err != nil {
			if !errors.Is(err, machine.ErrActuation) {
				panic(fmt.Sprintf("policy: pauseMostIntrusive: %v", err))
			}
			// The pause was dropped: surface it instead of silently leaving
			// the FG unprotected, and let the next decision retry.
			fc.windowActFailures++
			fc.emitAction(now, telemetry.ActionActuationFail, fc.bgTasks[bestIdx], fc.bgCores[bestIdx], -1)
			return
		}
		fc.emitAction(now, telemetry.ActionBGPause, fc.bgTasks[bestIdx], fc.bgCores[bestIdx], -1)
	}
}

// resumeAllPaused resumes every paused BG task. It reports whether any task
// actually resumed, and how many resume requests the machine dropped
// (injected faults) — each dropped request is counted in the coarse window
// and emitted as an ActionActuationFail event.
func (fc *FineController) resumeAllPaused(now sim.Time) (resumed bool, failures int) {
	for j, t := range fc.bgTasks {
		if !fc.paused(t) {
			continue
		}
		if err := fc.m.Resume(t); err != nil {
			if !errors.Is(err, machine.ErrActuation) {
				panic(fmt.Sprintf("policy: resumeAllPaused: %v", err))
			}
			failures++
			fc.windowActFailures++
			fc.emitAction(now, telemetry.ActionActuationFail, t, fc.bgCores[j], -1)
			continue
		}
		resumed = true
	}
	return resumed, failures
}

// FineWindow is the fine controller's windowed control input to the coarse
// controller's heuristic 3 (§4.3): how many decisions occurred since the
// last coarse adjustment and how many of them left BG heavily suppressed.
// It is deliberately minimal — all richer decision telemetry flows through
// the event stream (telemetry.Aggregator reconstructs full counters).
type FineWindow struct {
	Decisions    int
	BGSuppressed int // decisions with all BG at min grade or paused
	// ActuationFailures counts DVFS/pause/resume requests the machine
	// dropped this window (injected faults) — resource shifts the controller
	// wanted and did not get, which heuristic 3 treats as suppression
	// pressure.
	ActuationFailures int
}

// Window returns the decision window accumulated since the last
// ResetWindow.
func (fc *FineController) Window() FineWindow {
	return FineWindow{
		Decisions:         fc.windowDecisions,
		BGSuppressed:      fc.windowSuppressed,
		ActuationFailures: fc.windowActFailures,
	}
}

// ResetWindow zeroes the window (the coarse controller reads and resets it
// each adjustment).
func (fc *FineController) ResetWindow() {
	fc.windowDecisions = 0
	fc.windowSuppressed = 0
	fc.windowActFailures = 0
}

// AddFG registers a newly admitted FG task with the controller; stream is
// its stable stream index for telemetry labels. The core is pinned to the
// top grade, like construction-time FG cores. Admission is validated
// before any actuation: an occupied core or a duplicate task is rejected
// with the machine untouched.
func (fc *FineController) AddFG(task, core, stream int) error {
	if err := fc.checkAdmission(task, core); err != nil {
		return err
	}
	if err := fc.pinTop(core); err != nil {
		return err
	}
	fc.fgTasks = append(fc.fgTasks, task)
	fc.fgCores = append(fc.fgCores, core)
	fc.fgStreams = append(fc.fgStreams, stream)
	return nil
}

// RemoveFGByTask drops an FG task from the controller's managed set
// (mid-run stream eviction). Remaining entries keep their relative order,
// so Decide's status slices stay parallel to the runtime's active streams.
func (fc *FineController) RemoveFGByTask(task int) error {
	for i, t := range fc.fgTasks {
		if t != task {
			continue
		}
		fc.fgTasks = append(fc.fgTasks[:i], fc.fgTasks[i+1:]...)
		fc.fgCores = append(fc.fgCores[:i], fc.fgCores[i+1:]...)
		fc.fgStreams = append(fc.fgStreams[:i], fc.fgStreams[i+1:]...)
		return nil
	}
	return fmt.Errorf("policy: FG task %d not managed", task)
}

// AddBG registers a newly admitted BG task; its core is pinned to the top
// grade so grade stepping is well-defined from the first decision. Like
// AddFG, occupied cores and duplicate tasks are rejected before any
// actuation.
func (fc *FineController) AddBG(task, core int) error {
	if err := fc.checkAdmission(task, core); err != nil {
		return err
	}
	if err := fc.pinTop(core); err != nil {
		return err
	}
	fc.bgTasks = append(fc.bgTasks, task)
	fc.bgCores = append(fc.bgCores, core)
	fc.missSnapshot[task] = fc.m.Counters().Task(task).LLCMisses
	return nil
}

// RemoveBG drops a BG task from the controller's managed set.
func (fc *FineController) RemoveBG(task int) error {
	for j, t := range fc.bgTasks {
		if t != task {
			continue
		}
		fc.bgTasks = append(fc.bgTasks[:j], fc.bgTasks[j+1:]...)
		fc.bgCores = append(fc.bgCores[:j], fc.bgCores[j+1:]...)
		delete(fc.missSnapshot, task)
		return nil
	}
	return fmt.Errorf("policy: BG task %d not managed", task)
}

// checkAdmission rejects an admission whose core is already managed or
// whose task ID is already registered, so a bad scheduler call can't make
// two controller entries fight over one core's grade.
func (fc *FineController) checkAdmission(task, core int) error {
	for _, c := range fc.fgCores {
		if c == core {
			return fmt.Errorf("policy: core %d already runs a managed FG task", core)
		}
	}
	for _, c := range fc.bgCores {
		if c == core {
			return fmt.Errorf("policy: core %d already runs a managed BG task", core)
		}
	}
	for _, t := range fc.fgTasks {
		if t == task {
			return fmt.Errorf("policy: task %d already managed as FG", task)
		}
	}
	for _, t := range fc.bgTasks {
		if t == task {
			return fmt.Errorf("policy: task %d already managed as BG", task)
		}
	}
	return nil
}

// pinTop pins a core to the controller's top grade, tolerating a dropped
// actuation exactly like the constructor does.
func (fc *FineController) pinTop(core int) error {
	top := fc.grades[len(fc.grades)-1]
	if err := fc.m.SetFreqLevel(core, top); err != nil && !errors.Is(err, machine.ErrActuation) {
		return err
	}
	return nil
}
