package policy

import (
	"errors"
	"fmt"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/machine"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// CORDLike implements a CORD-style co-designed static allocation: at Init
// it decomposes each stream's end-to-end deadline against the offline
// profile's standalone execution time into a slack budget, and converts
// the tightest budget into a fixed BG frequency level and a fixed LLC way
// split. Nothing adapts afterwards — Tick only re-asserts the chosen
// operating point (so injected actuation faults heal) and OnExecution is
// bookkeeping-free. The comparison story against Dirigent is the paper's
// §3.1 static-scheme critique: the allocation must be provisioned for the
// decomposed worst case, so slack that Dirigent would hand back to BG
// tasks is permanently reserved.
type CORDLike struct {
	m   *machine.Machine
	rec telemetry.Recorder

	fgTasks []int
	fgCores []int
	bgTasks []int
	bgCores []int

	llc     *cache.LLC
	fgClass cache.ClassID
	bgClass cache.ClassID

	// bgLevel and fgWays are the decomposed operating point.
	bgLevel int
	fgWays  int

	windowDecisions   int
	windowSuppressed  int
	windowActFailures int
}

// NewCORDLike returns an un-bound CORD-style policy.
func NewCORDLike() *CORDLike { return &CORDLike{} }

// Name implements Policy.
func (c *CORDLike) Name() string { return NameCORDLike }

// Capabilities implements Policy: static DVFS pinning plus a static LLC
// split; pausing is never used.
func (c *CORDLike) Capabilities() Capabilities {
	return Capabilities{LLCWays: true}
}

// slackBudget returns the tightest per-stream relative slack
// (target − standalone)/standalone across streams with usable profiles.
// Streams without a standalone duration are skipped; with no usable
// profile at all a moderate budget is assumed.
func slackBudget(targets []time.Duration, profiles []StreamProfile) float64 {
	const assumed = 0.15
	budget, found := 0.0, false
	for i, t := range targets {
		if i >= len(profiles) || profiles[i].StandaloneDuration <= 0 || t <= 0 {
			continue
		}
		phi := float64(t-profiles[i].StandaloneDuration) / float64(profiles[i].StandaloneDuration)
		if !found || phi < budget {
			budget, found = phi, true
		}
	}
	if !found {
		return assumed
	}
	return budget
}

// decompose maps the slack budget to the static operating point: generous
// slack admits fast BG and little isolation, tight slack floors BG and
// reserves a large FG partition.
func (c *CORDLike) decompose(budget float64) {
	// The grade set adapts to the machine's ladder (the paper's nine-level
	// ladder yields five grades); shorter ladders have fewer grades, so
	// clamp the chosen rung.
	grades := GradesForLevels(c.m.MaxFreqLevel() + 1)
	rung := func(i int) int {
		if i >= len(grades) {
			i = len(grades) - 1
		}
		return grades[i]
	}
	switch {
	case budget >= 0.35:
		c.bgLevel = rung(4)
	case budget >= 0.25:
		c.bgLevel = rung(3)
	case budget >= 0.15:
		c.bgLevel = rung(2)
	case budget >= 0.08:
		c.bgLevel = rung(1)
	default:
		c.bgLevel = rung(0)
	}
	if c.llc != nil {
		ways := c.llc.Ways()
		switch {
		case budget < 0.15:
			c.fgWays = ways / 2
		case budget < 0.30:
			c.fgWays = ways / 3
		default:
			c.fgWays = ways / 4
		}
		if c.fgWays < 2 {
			c.fgWays = 2
		}
		if c.fgWays > ways-2 {
			c.fgWays = ways - 2
		}
	}
}

// Init computes the decomposed allocation and applies it: FG cores at the
// top level, BG cores at the decomposed level, and — when an LLC binding
// exists — the static way split, reported as an initial partition move.
func (c *CORDLike) Init(b Binding) error {
	if b.Machine == nil {
		return errors.New("policy: cordlike needs a machine")
	}
	if len(b.FGTasks) == 0 {
		return errors.New("policy: cordlike needs at least one FG task")
	}
	c.m = b.Machine
	c.rec = telemetry.OrNop(b.Recorder)
	c.fgTasks = append([]int(nil), b.FGTasks...)
	c.fgCores = append([]int(nil), b.FGCores...)
	c.bgTasks = append([]int(nil), b.BGTasks...)
	c.bgCores = append([]int(nil), b.BGCores...)
	c.llc = b.LLC
	c.fgClass, c.bgClass = b.FGClass, b.BGClass
	if c.llc != nil && c.fgClass == c.bgClass {
		return errors.New("policy: cordlike partitioning needs distinct FG/BG classes")
	}

	c.decompose(slackBudget(b.Targets, b.Profiles))

	top := c.m.MaxFreqLevel()
	for _, core := range c.fgCores {
		if err := c.setLevel(core, top); err != nil {
			return err
		}
	}
	for _, core := range c.bgCores {
		if err := c.setLevel(core, c.bgLevel); err != nil {
			return err
		}
	}
	if c.llc != nil {
		if err := c.llc.SetPartition(map[cache.ClassID]int{
			c.fgClass: c.fgWays,
			c.bgClass: c.llc.Ways() - c.fgWays,
		}); err != nil {
			return err
		}
		if c.rec.Enabled(telemetry.KindPartitionMove) {
			c.rec.Record(telemetry.Event{
				Kind: telemetry.KindPartitionMove, At: c.m.Now(),
				FGWays: c.fgWays, Reason: telemetry.ReasonStaticDecomposition,
			})
		}
	}
	return nil
}

func (c *CORDLike) setLevel(core, level int) error {
	if err := c.m.SetFreqLevel(core, level); err != nil && !errors.Is(err, machine.ErrActuation) {
		return err
	}
	return nil
}

// Tick re-asserts the static operating point, actuating only divergent
// cores; a fault-free steady state issues no machine calls.
func (c *CORDLike) Tick(now sim.Time, status []FGStatus) error {
	c.windowDecisions++
	top := c.m.MaxFreqLevel()
	suppressed := c.bgLevel < (6*top)/10
	if suppressed && len(c.bgCores) > 0 {
		c.windowSuppressed++
	}
	for _, core := range c.fgCores {
		if l, err := c.m.FreqLevel(core); err == nil && l != top {
			c.reassert(now, core, top)
		}
	}
	for _, core := range c.bgCores {
		if l, err := c.m.FreqLevel(core); err == nil && l != c.bgLevel {
			c.reassert(now, core, c.bgLevel)
		}
	}
	if c.rec.Enabled(telemetry.KindFineDecision) {
		c.rec.Record(telemetry.Event{
			Kind: telemetry.KindFineDecision, At: now,
			Reason: telemetry.ReasonStaticDecomposition, Streams: len(status),
			Suppressed: suppressed && len(c.bgCores) > 0,
		})
	}
	return nil
}

func (c *CORDLike) reassert(now sim.Time, core, level int) {
	if err := c.m.SetFreqLevel(core, level); err != nil {
		if errors.Is(err, machine.ErrActuation) {
			c.windowActFailures++
			if c.rec.Enabled(telemetry.KindFineAction) {
				c.rec.Record(telemetry.Event{
					Kind: telemetry.KindFineAction, At: now,
					Action: telemetry.ActionActuationFail, Task: -1, Core: core, Stream: -1,
				})
			}
			return
		}
		panic(fmt.Sprintf("policy: cordlike set level: %v", err))
	}
}

// OnExecution implements Policy; a static allocation learns nothing from
// execution boundaries.
func (c *CORDLike) OnExecution(stream int, e ExecutionSample) {}

// AddFG pins the new stream's core to the top level. The allocation is not
// re-decomposed — CORD's split is fixed at admission-control time, which
// is exactly the rigidity the comparison surfaces.
func (c *CORDLike) AddFG(task, core, stream int) error {
	if err := c.setLevel(core, c.m.MaxFreqLevel()); err != nil {
		return err
	}
	c.fgTasks = append(c.fgTasks, task)
	c.fgCores = append(c.fgCores, core)
	return nil
}

// RemoveFG forgets the stream's core. Lookup is by the policy's own task
// bookkeeping — the runtime removes the stream from the scheduler (killing
// the task) before notifying the policy, so the machine can no longer
// resolve the task.
func (c *CORDLike) RemoveFG(task int) error {
	for i, t := range c.fgTasks {
		if t == task {
			c.fgTasks = append(c.fgTasks[:i], c.fgTasks[i+1:]...)
			c.fgCores = append(c.fgCores[:i], c.fgCores[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("policy: FG task %d not managed", task)
}

// AddBG pins the new worker's core to the decomposed BG level.
func (c *CORDLike) AddBG(task, core int) error {
	if err := c.setLevel(core, c.bgLevel); err != nil {
		return err
	}
	c.bgTasks = append(c.bgTasks, task)
	c.bgCores = append(c.bgCores, core)
	return nil
}

// RemoveBG forgets the worker's core.
func (c *CORDLike) RemoveBG(task int) error {
	for i, t := range c.bgTasks {
		if t == task {
			c.bgTasks = append(c.bgTasks[:i], c.bgTasks[i+1:]...)
			c.bgCores = append(c.bgCores[:i], c.bgCores[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("policy: BG task %d not managed", task)
}

// Window implements Policy.
func (c *CORDLike) Window() FineWindow {
	return FineWindow{
		Decisions:         c.windowDecisions,
		BGSuppressed:      c.windowSuppressed,
		ActuationFailures: c.windowActFailures,
	}
}

// ResetWindow implements Policy.
func (c *CORDLike) ResetWindow() {
	c.windowDecisions = 0
	c.windowSuppressed = 0
	c.windowActFailures = 0
}
