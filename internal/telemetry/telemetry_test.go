package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dirigent/internal/sim"
)

func TestKindNames(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no wire name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("out-of-range kinds must stringify as unknown")
	}
	if ActionBGPause.String() != "bg_pause" || Action(99).String() != "unknown" {
		t.Error("action wire names broken")
	}
}

func TestNopHelpers(t *testing.T) {
	if !IsNop(nil) || !IsNop(Nop()) {
		t.Error("nil and Nop() must both be nop")
	}
	if OrNop(nil) != Nop() {
		t.Error("OrNop(nil) must return the shared nop")
	}
	agg := NewAggregator()
	if IsNop(agg) {
		t.Error("a real sink is not nop")
	}
	if OrNop(agg) != Recorder(agg) {
		t.Error("OrNop must pass real sinks through")
	}
	if Nop().Enabled(KindQuantumStep) {
		t.Error("nop must disable every kind")
	}
}

// captureSink records every delivered event, optionally masking kinds.
type captureSink struct {
	events []Event
	deny   map[Kind]bool
}

func (c *captureSink) Enabled(k Kind) bool { return !c.deny[k] }
func (c *captureSink) Record(ev Event)     { c.events = append(c.events, ev) }

func TestTeeComposition(t *testing.T) {
	if Tee() != Nop() || Tee(nil, Nop()) != Nop() {
		t.Error("tee of no real sinks must collapse to nop")
	}
	solo := &captureSink{}
	if Tee(nil, solo, Nop()) != Recorder(solo) {
		t.Error("tee of one real sink must return it directly")
	}

	a := &captureSink{}
	b := &captureSink{deny: map[Kind]bool{KindQuantumStep: true}}
	tr := Tee(a, b)
	if !tr.Enabled(KindQuantumStep) {
		t.Error("tee is enabled when any sink is")
	}
	tr.Record(Event{Kind: KindQuantumStep})
	tr.Record(Event{Kind: KindTaskLaunch, Task: 3})
	if len(a.events) != 2 {
		t.Errorf("sink a saw %d events, want 2", len(a.events))
	}
	if len(b.events) != 1 || b.events[0].Kind != KindTaskLaunch {
		t.Errorf("sink b must only see enabled kinds: %+v", b.events)
	}
}

func TestWithRunStampsLabel(t *testing.T) {
	if WithRun(Nop(), "x") != Nop() {
		t.Error("WithRun over nop must stay nop")
	}
	c := &captureSink{}
	r := WithRun(c, "mixA/Dirigent")
	r.Record(Event{Kind: KindExecutionComplete, Stream: 1})
	if len(c.events) != 1 || c.events[0].Run != "mixA/Dirigent" {
		t.Errorf("run label not stamped: %+v", c.events)
	}
	if c.events[0].Stream != 1 {
		t.Error("payload must pass through unchanged")
	}
}

// playMachine feeds a minimal consistent machine history: 2 cores, 3 levels
// (top 2), 1 ms quantum; core 1 drops to level 0 after the first quantum.
func playMachine(r Recorder) {
	q := time.Millisecond
	r.Record(Event{Kind: KindMachineStart, Cores: 2, Levels: 3, TopLevel: 2, Quantum: q})
	r.Record(Event{Kind: KindQuantumStep, At: sim.Time(q), Instructions: 100, LLCMisses: 5})
	r.Record(Event{Kind: KindDVFSTransition, Core: 1, FromLevel: 2, ToLevel: 0})
	r.Record(Event{Kind: KindQuantumStep, At: sim.Time(2 * q), Instructions: 80, LLCMisses: 3})
	r.Record(Event{Kind: KindQuantumStep, At: sim.Time(3 * q), Instructions: 90, LLCMisses: 4})
}

func TestAggregatorResidencyReplay(t *testing.T) {
	a := NewAggregator()
	playMachine(a)
	if !a.Started() {
		t.Fatal("machine start not seen")
	}
	q := time.Millisecond
	// Core 0 never moved: all 3 quanta at top level.
	if res := a.FreqResidency(0); res[2] != 3*q || res[0] != 0 {
		t.Errorf("core 0 residency = %v", res)
	}
	// Core 1: first quantum at top, then two at level 0.
	if res := a.FreqResidency(1); res[2] != q || res[0] != 2*q {
		t.Errorf("core 1 residency = %v", res)
	}
	if a.FreqResidency(2) != nil || a.FreqResidency(-1) != nil {
		t.Error("out-of-range cores must return nil")
	}
	if a.Quanta() != 3 || a.Instructions() != 270 || a.LLCMisses() != 12 {
		t.Errorf("quantum aggregates wrong: %d %g %g", a.Quanta(), a.Instructions(), a.LLCMisses())
	}
	// A duplicate machine start must not reset state.
	a.Record(Event{Kind: KindMachineStart, Cores: 8, Levels: 9, TopLevel: 8})
	if res := a.FreqResidency(0); res[2] != 3*q {
		t.Error("re-attach reset aggregator state")
	}
}

func TestAggregatorControllerCounters(t *testing.T) {
	a := NewAggregator()
	a.Record(Event{Kind: KindFineDecision, At: 42, Reason: ReasonFGBehind, Suppressed: true})
	a.Record(Event{Kind: KindFineDecision, At: 43, Reason: ReasonSteady})
	for _, act := range []Action{ActionFGMaxBoost, ActionFGThrottle, ActionBGThrottle,
		ActionBGSpeedup, ActionBGPause, ActionBGResume, ActionBGPause} {
		a.Record(Event{Kind: KindFineAction, Action: act})
	}
	f := a.Fine()
	want := FineStats{Decisions: 2, BGSuppressed: 1, PausesIssued: 2, FGThrottles: 1,
		BGThrottles: 1, BGSpeedups: 1, Resumes: 1, FGMaxBoosts: 1, LastDecisionAt: 43}
	if f != want {
		t.Errorf("fine stats = %+v, want %+v", f, want)
	}

	a.Record(Event{Kind: KindPartitionMove, FGWays: 2, Delta: 0, Reason: ReasonInitialPartition})
	a.Record(Event{Kind: KindPartitionMove, FGWays: 3, Delta: 1, ExecCount: 12})
	a.Record(Event{Kind: KindPartitionMove, FGWays: 4, Delta: 1, ExecCount: 18})
	if a.FGWays() != 4 || a.PartitionMoves() != 2 || a.ConvergedAtExecution() != 18 {
		t.Errorf("partition state: ways=%d moves=%d converged=%d",
			a.FGWays(), a.PartitionMoves(), a.ConvergedAtExecution())
	}

	a.Record(Event{Kind: KindTaskPause})
	a.Record(Event{Kind: KindTaskResume})
	a.Record(Event{Kind: KindTaskSwitch})
	a.Record(Event{Kind: KindSegmentPenalty, Penalty: 10 * time.Millisecond})
	a.Record(Event{Kind: KindSegmentPenalty, Penalty: 30 * time.Millisecond})
	a.Record(Event{Kind: KindExecutionComplete})
	if a.Pauses() != 1 || a.Resumes() != 1 || a.Switches() != 1 || a.Executions() != 1 {
		t.Error("lifecycle counters wrong")
	}
	if a.Segments() != 2 || a.MeanPenalty() != 20*time.Millisecond {
		t.Errorf("segments=%d mean penalty=%v", a.Segments(), a.MeanPenalty())
	}
}

func TestJSONLParseableAndFiltered(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	if j.Enabled(KindQuantumStep) {
		t.Error("quantum steps must be excluded by default")
	}
	r := WithRun(Recorder(j), "m1/Baseline")
	playMachine(r)
	r.Record(Event{Kind: KindFineDecision, At: 5, Reason: ReasonAllAhead, Ahead: 1, Streams: 1, Slack: 0.2})
	r.Record(Event{Kind: KindFineAction, Action: ActionBGSpeedup, Task: -1, Core: -1, Stream: -1})
	r.Record(Event{Kind: KindCoarseDecision, Reason: ReasonNoChange, FGWays: 2})
	r.Record(Event{Kind: KindSegmentPenalty, Stream: 0, Segment: 3, Duration: time.Millisecond, Penalty: time.Microsecond, Alpha: 1.1})
	r.Record(Event{Kind: KindExecutionComplete, Stream: 0, Task: 1, Duration: time.Second})
	r.Record(Event{Kind: KindTaskLaunch, Task: 0, Core: 0, Name: "ferret"})
	r.Record(Event{Kind: KindPartitionMove, FGWays: 3, Delta: 1, Reason: ReasonCorrelation})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// playMachine emits 5 events of which 3 quantum steps are filtered.
	if wantLines := 9; len(lines) != wantLines {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), wantLines, buf.String())
	}
	kinds := map[string]int{}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, ln)
		}
		kind, _ := obj["kind"].(string)
		kinds[kind]++
		if run, _ := obj["run"].(string); run != "m1/Baseline" {
			t.Errorf("missing run label on %s", ln)
		}
		if _, ok := obj["at_ns"]; !ok {
			t.Errorf("missing at_ns on %s", ln)
		}
	}
	if kinds["quantum_step"] != 0 {
		t.Error("quantum steps leaked into default trace")
	}
	for _, want := range []string{"machine_start", "dvfs", "fine_decision", "fine_action",
		"coarse_decision", "segment", "execution", "launch", "partition"} {
		if kinds[want] != 1 {
			t.Errorf("kind %s appeared %d times, want 1", want, kinds[want])
		}
	}
	if j.Events() != 9 {
		t.Errorf("Events() = %d", j.Events())
	}
	if j.Err() != nil {
		t.Errorf("Err() = %v", j.Err())
	}
}

func TestJSONLIncludeQuantumSteps(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf).Include(KindQuantumStep).Exclude(KindDVFSTransition)
	playMachine(j)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // machine_start + 3 quantum steps, dvfs excluded
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["kind"] != "quantum_step" || obj["instructions"] != 100.0 {
		t.Errorf("quantum step payload wrong: %v", obj)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestJSONLWriteError(t *testing.T) {
	j := NewJSONL(&failWriter{n: 1})
	j.Record(Event{Kind: KindTaskLaunch})
	j.Record(Event{Kind: KindTaskLaunch})
	j.Record(Event{Kind: KindTaskLaunch})
	if j.Err() == nil {
		t.Fatal("write error must surface via Err")
	}
	if j.Events() != 1 {
		t.Errorf("Events() = %d, want 1 (writes after error dropped)", j.Events())
	}
}

// TestCreateJSONLReadsBack records through the file sink and reads every
// event back, line for line, once the closer has run.
func TestCreateJSONLReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	j, closeTrace, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := range 3 {
		ev := Event{Kind: KindTaskLaunch, Task: i, Core: i, Name: "ferret"}
		j.Record(ev)
		want = AppendJSON(want, ev)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("trace file reads %q (%v), want %q", got, err, want)
	}
}

// TestAggregatorStreamDurations replays completion events for interleaved FG
// streams and checks durations come back per stream, in completion order, as
// defensive copies.
func TestAggregatorStreamDurations(t *testing.T) {
	a := NewAggregator()
	ms := time.Millisecond
	for _, ev := range []Event{
		{Kind: KindExecutionComplete, Stream: 0, Duration: 480 * ms},
		{Kind: KindExecutionComplete, Stream: 1, Duration: 300 * ms},
		{Kind: KindExecutionComplete, Stream: 0, Duration: 510 * ms},
		{Kind: KindExecutionComplete, Stream: 0, Duration: 495 * ms},
		{Kind: KindQuantumStep}, // unrelated kinds must not contribute
	} {
		a.Record(ev)
	}
	want0 := []time.Duration{480 * ms, 510 * ms, 495 * ms}
	got0 := a.StreamDurations(0)
	if len(got0) != len(want0) {
		t.Fatalf("stream 0: %d durations, want %d", len(got0), len(want0))
	}
	for i := range want0 {
		if got0[i] != want0[i] {
			t.Errorf("stream 0 execution %d: %v, want %v", i, got0[i], want0[i])
		}
	}
	if got1 := a.StreamDurations(1); len(got1) != 1 || got1[0] != 300*ms {
		t.Errorf("stream 1 durations = %v", got1)
	}
	if got := a.StreamDurations(7); got != nil {
		t.Errorf("unseen stream returned %v, want nil", got)
	}
	// Mutating the returned slice must not corrupt the aggregator's state.
	got0[0] = 0
	if again := a.StreamDurations(0); again[0] != 480*ms {
		t.Error("StreamDurations must return a copy")
	}
}

func TestWithPolicyStampsLabel(t *testing.T) {
	if WithPolicy(Nop(), "rtgang") != Nop() {
		t.Error("WithPolicy over nop must stay nop")
	}
	c := &captureSink{}
	r := WithPolicy(c, "rtgang")
	r.Record(Event{Kind: KindFineDecision, Streams: 2})
	if len(c.events) != 1 || c.events[0].Policy != "rtgang" {
		t.Errorf("policy label not stamped: %+v", c.events)
	}
	if c.events[0].Streams != 2 {
		t.Error("payload must pass through unchanged")
	}
	// Composition with WithRun: both labels land on the same event.
	c2 := &captureSink{}
	rr := WithPolicy(WithRun(c2, "mixA/Dirigent"), "dirigent")
	rr.Record(Event{Kind: KindFineAction, Action: ActionGangSwitch})
	if c2.events[0].Run != "mixA/Dirigent" || c2.events[0].Policy != "dirigent" {
		t.Errorf("labels must compose: %+v", c2.events)
	}
}

func TestJSONLPolicyField(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	r := WithPolicy(Recorder(j), "cordlike")
	r.Record(Event{Kind: KindFineDecision, At: 5, Reason: ReasonStaticDecomposition, Streams: 1})
	r.Record(Event{Kind: KindFineAction, Action: ActionGangSwitch, Task: 2, Core: 1, Stream: 1})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, ln)
		}
		if p, _ := obj["policy"].(string); p != "cordlike" {
			t.Errorf("policy field = %q, want %q in %s", p, "cordlike", ln)
		}
	}
	var act map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &act); err != nil {
		t.Fatal(err)
	}
	if a, _ := act["action"].(string); a != "gang_switch" {
		t.Errorf("action = %q, want gang_switch", a)
	}
	// Unlabelled events omit the field entirely.
	buf.Reset()
	j2 := NewJSONL(&buf)
	j2.Record(Event{Kind: KindFineDecision, Streams: 1})
	if strings.Contains(buf.String(), "policy") {
		t.Errorf("unlabelled event must omit the policy field: %s", buf.String())
	}
}

// flushCloseWriter is an in-memory writer with controllable Flush/Close
// behaviour, for exercising the JSONL lifecycle paths.
type flushCloseWriter struct {
	bytes.Buffer
	flushErr error
	closeErr error
	flushes  int
	closes   int
}

func (f *flushCloseWriter) Flush() error { f.flushes++; return f.flushErr }
func (f *flushCloseWriter) Close() error { f.closes++; return f.closeErr }

func TestJSONLFlushCloseSurfaceErrors(t *testing.T) {
	// A dropped write error is what Flush and Close return later.
	j := NewJSONL(&failWriter{n: 0})
	j.Record(Event{Kind: KindTaskLaunch})
	if err := j.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush must surface the first write error, got %v", err)
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close must surface the first write error")
	}

	// Flush forwards to the writer's own Flush and wraps its error; the
	// error is sticky, so later events are dropped.
	fw := &flushCloseWriter{flushErr: errors.New("pipe gone")}
	j2 := NewJSONL(fw)
	j2.Record(Event{Kind: KindTaskLaunch})
	if err := j2.Flush(); err == nil || !strings.Contains(err.Error(), "pipe gone") {
		t.Fatalf("Flush error = %v", err)
	}
	j2.Record(Event{Kind: KindTaskLaunch})
	if j2.Events() != 1 {
		t.Errorf("Events() = %d after flush error, want 1", j2.Events())
	}

	// Close flushes first, then closes; a close error is reported when no
	// earlier error is pending.
	fw3 := &flushCloseWriter{closeErr: errors.New("already closed")}
	j3 := NewJSONL(fw3)
	j3.Record(Event{Kind: KindTaskLaunch})
	if err := j3.Close(); err == nil || !strings.Contains(err.Error(), "already closed") {
		t.Fatalf("Close error = %v", err)
	}
	if fw3.flushes != 1 || fw3.closes != 1 {
		t.Errorf("flushes=%d closes=%d, want 1/1", fw3.flushes, fw3.closes)
	}

	// Fully clean sink: nil all the way through.
	fw4 := &flushCloseWriter{}
	j4 := NewJSONL(fw4)
	j4.Record(Event{Kind: KindTaskLaunch})
	if err := j4.Close(); err != nil {
		t.Fatalf("clean Close = %v", err)
	}
	if fw4.flushes != 1 || fw4.closes != 1 {
		t.Errorf("clean path: flushes=%d closes=%d, want 1/1", fw4.flushes, fw4.closes)
	}
}

func TestJSONLBufferShrinksAfterLargeEvent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	huge := strings.Repeat("x", 2*jsonlRetainBytes)
	j.Record(Event{Kind: KindTaskLaunch, Name: huge})
	if c := cap(j.buf); c > jsonlRetainBytes {
		t.Errorf("encode buffer retains %d bytes after pathological event, cap is %d",
			c, jsonlRetainBytes)
	}
	if !strings.Contains(buf.String(), huge) {
		t.Error("pathological event must still be written intact")
	}
	// The sink keeps working after the shrink.
	j.Record(Event{Kind: KindTaskLaunch, Name: "small"})
	if j.Events() != 2 || j.Err() != nil {
		t.Errorf("post-shrink: events=%d err=%v", j.Events(), j.Err())
	}
}

func TestJSONLBatchMatchesPerEvent(t *testing.T) {
	evs := []Event{
		{Kind: KindQuantumStep, At: 250000, Utilization: 0.5, Instructions: 1e6, LLCMisses: 42},
		{Kind: KindQuantumStep, At: 500000, Utilization: 0.75, Instructions: 2e6, LLCMisses: 7, Run: "m1/Baseline"},
		{Kind: KindQuantumStep, At: 750000, Instructions: 3e6, Completions: 1, Policy: "dirigent"},
	}
	var one, batch bytes.Buffer
	j1 := NewJSONL(&one).Include(KindQuantumStep)
	for _, ev := range evs {
		j1.Record(ev)
	}
	j2 := NewJSONL(&batch).Include(KindQuantumStep)
	j2.RecordQuantumSteps(evs)
	if !bytes.Equal(one.Bytes(), batch.Bytes()) {
		t.Errorf("batched encoding differs from per-event encoding:\n%s\nvs\n%s",
			one.String(), batch.String())
	}
	if j2.Events() != int64(len(evs)) {
		t.Errorf("batch Events() = %d, want %d", j2.Events(), len(evs))
	}

	// With quantum steps excluded (the default), the batch is a no-op.
	var none bytes.Buffer
	j3 := NewJSONL(&none)
	j3.RecordQuantumSteps(evs)
	if j3.Events() != 0 || none.Len() != 0 {
		t.Error("excluded-kind batch must write nothing")
	}

	// After a write error, batches are dropped like single events.
	j4 := NewJSONL(&failWriter{n: 0}).Include(KindQuantumStep)
	j4.Record(Event{Kind: KindQuantumStep})
	j4.RecordQuantumSteps(evs)
	if j4.Events() != 0 {
		t.Errorf("post-error batch recorded %d events", j4.Events())
	}
}
