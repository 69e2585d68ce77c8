package load

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// TraceFormat and TraceVersion stamp the JSONL header line so a replayed
// file is recognizably a dirigent-load trace of a readable vintage.
const (
	TraceFormat  = "dirigent-load"
	TraceVersion = 1
)

// Op is a trace event's operation.
type Op string

// The three churn operations a trace drives.
const (
	OpCreate   Op = "create"
	OpRetarget Op = "retarget"
	OpEvict    Op = "evict"
)

// opResult labels the driver's mid-eviction QoS snapshot in reports; it
// never appears in traces.
const opResult Op = "result"

// Event is one trace line. Field presence follows the operation: create
// carries the template, retarget carries stream and target_us (an absent
// stream means stream 0), evict carries neither.
type Event struct {
	// Seq is the event's position in the trace (0-based, contiguous).
	Seq int `json:"seq"`
	// AtUS is the event's offset from trace start in microseconds.
	AtUS int64 `json:"at_us"`
	Op   Op    `json:"op"`
	// Tenant is the trace-scoped tenant label (not the server-assigned ID).
	Tenant   string `json:"tenant"`
	Template string `json:"template,omitempty"`
	Stream   int    `json:"stream,omitempty"`
	TargetUS int64  `json:"target_us,omitempty"`
}

// header is the first JSONL line of a serialized trace.
type header struct {
	Trace      string `json:"trace"`
	Version    int    `json:"version"`
	Spec       string `json:"spec"`
	Seed       uint64 `json:"seed"`
	DurationUS int64  `json:"duration_us"`
	Suppressed int    `json:"suppressed"`
	Events     int    `json:"events"`
}

// Trace is a synthesized or recorded churn schedule: events sorted by
// time, each tenant's create preceding its retargets and evict.
type Trace struct {
	// Spec and Seed identify the synthesis inputs ("replay"/0 for traces
	// of unknown provenance).
	Spec string
	Seed uint64
	// DurationUS is the schedule horizon in microseconds; every event
	// fires at or before it.
	DurationUS int64
	// Suppressed counts arrivals dropped at synthesis time by the spec's
	// max_live cap.
	Suppressed int
	Events     []Event
}

// Counts returns the per-operation event totals.
func (t *Trace) Counts() (creates, retargets, evicts int) {
	for _, ev := range t.Events {
		switch ev.Op {
		case OpCreate:
			creates++
		case OpRetarget:
			retargets++
		case OpEvict:
			evicts++
		}
	}
	return
}

// Write serializes the trace as JSONL: one header line, then one line per
// event. The encoding is canonical — json.Marshal with fixed field order
// and integer microsecond timestamps — so identical traces serialize to
// identical bytes.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := header{
		Trace: TraceFormat, Version: TraceVersion,
		Spec: t.Spec, Seed: t.Seed,
		DurationUS: t.DurationUS, Suppressed: t.Suppressed,
		Events: len(t.Events),
	}
	if err := writeLine(bw, h); err != nil {
		return err
	}
	for i := range t.Events {
		if err := writeLine(bw, t.Events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("load: encode trace line: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// ReadTrace parses a JSONL trace, validating the header and the event
// stream's invariants: contiguous seq numbers (a gap means truncation or
// hand-editing), non-decreasing timestamps, and known operations.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("load: read trace: %w", err)
		}
		return nil, fmt.Errorf("load: trace is empty (missing %s header line)", TraceFormat)
	}
	var h header
	if err := strictUnmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("load: trace header: %w", err)
	}
	if h.Trace != TraceFormat {
		return nil, fmt.Errorf("load: trace header names format %q, want %q", h.Trace, TraceFormat)
	}
	if h.Version != TraceVersion {
		return nil, fmt.Errorf("load: trace version %d, this tool reads %d", h.Version, TraceVersion)
	}
	tr := &Trace{
		Spec: h.Spec, Seed: h.Seed,
		DurationUS: h.DurationUS, Suppressed: h.Suppressed,
		Events: make([]Event, 0, h.Events),
	}
	var prevAt int64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := strictUnmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("load: trace event %d: %w", len(tr.Events), err)
		}
		if ev.Seq != len(tr.Events) {
			return nil, fmt.Errorf("load: trace event seq %d at position %d (truncated or reordered trace)", ev.Seq, len(tr.Events))
		}
		switch ev.Op {
		case OpCreate, OpRetarget, OpEvict:
		default:
			return nil, fmt.Errorf("load: trace event %d: unknown op %q", ev.Seq, ev.Op)
		}
		if ev.Tenant == "" {
			return nil, fmt.Errorf("load: trace event %d: missing tenant", ev.Seq)
		}
		if ev.AtUS < prevAt {
			return nil, fmt.Errorf("load: trace event %d: at_us %d before predecessor %d", ev.Seq, ev.AtUS, prevAt)
		}
		prevAt = ev.AtUS
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("load: read trace: %w", err)
	}
	if h.Events != len(tr.Events) {
		return nil, fmt.Errorf("load: trace header declares %d events, file has %d (truncated?)", h.Events, len(tr.Events))
	}
	return tr, nil
}

// strictUnmarshal decodes one JSON value rejecting unknown fields.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
