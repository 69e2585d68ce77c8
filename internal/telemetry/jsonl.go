package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// jsonlRetainBytes caps the encode buffer retained between events: a
// pathologically large event (e.g. a huge run label) grows the buffer for
// one write, after which it is released rather than pinned for the rest of
// the sink's life.
const jsonlRetainBytes = 64 << 10

// jsonlInitialBytes is the encode buffer's starting capacity, comfortably
// above every ordinary event line.
const jsonlInitialBytes = 256

// JSONL writes one JSON object per event, newline-delimited — a trace
// suitable for offline replay, diffing, and external tooling. Encoding is
// hand-rolled so field order is stable and only the fields meaningful for
// the event's kind appear.
//
// By default every kind except KindQuantumStep is traced: quantum steps
// fire once per 250 µs of simulated time and dominate trace volume; opt in
// with Include(KindQuantumStep) when per-quantum data is wanted.
//
// JSONL is safe for concurrent use (one mutex around encode+write), so a
// single trace file can serve parallel runs when events are labelled via
// WithRun.
type JSONL struct {
	mu      sync.Mutex
	w       io.Writer
	buf     []byte
	enabled [numKinds]bool
	err     error
	events  int64
}

// NewJSONL returns a JSONL recorder writing to w. The caller is
// responsible for buffering and closing w.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: w, buf: make([]byte, 0, jsonlInitialBytes)}
	for k := Kind(1); k < numKinds; k++ {
		j.enabled[k] = k != KindQuantumStep
	}
	return j
}

// Include enables tracing of the given kinds and returns j for chaining.
func (j *JSONL) Include(kinds ...Kind) *JSONL {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, k := range kinds {
		if k > 0 && k < numKinds {
			j.enabled[k] = true
		}
	}
	return j
}

// Enabled reports whether events of kind k are written.
func (j *JSONL) Enabled(k Kind) bool {
	if k <= 0 || k >= numKinds {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enabled[k]
}

// Events returns how many events have been written.
func (j *JSONL) Events() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// Record encodes and writes one event.
func (j *JSONL) Record(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || ev.Kind <= 0 || ev.Kind >= numKinds || !j.enabled[ev.Kind] {
		return
	}
	j.buf = appendEvent(j.buf[:0], ev)
	j.writeBuf(1)
}

// RecordQuantumSteps encodes a run of consecutive quantum-step events into
// the reused buffer and writes them in one call — the machine's StepN
// batches amortize the lock and the write syscall over the whole batch,
// with zero per-event allocation.
func (j *JSONL) RecordQuantumSteps(evs []Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || !j.enabled[KindQuantumStep] {
		return
	}
	j.buf = j.buf[:0]
	for i := range evs {
		j.buf = appendEvent(j.buf, evs[i])
	}
	j.writeBuf(int64(len(evs)))
}

// writeBuf flushes the encode buffer to the writer, recording the sink's
// first error and shrinking the buffer after a pathologically large encode.
// Callers hold j.mu.
func (j *JSONL) writeBuf(events int64) {
	_, err := j.w.Write(j.buf)
	if cap(j.buf) > jsonlRetainBytes {
		j.buf = make([]byte, 0, jsonlInitialBytes)
	}
	if err != nil {
		j.err = fmt.Errorf("telemetry: jsonl write: %w", err)
		return
	}
	j.events += events
}

// Flush forwards to the underlying writer's Flush when it has one (e.g. a
// bufio.Writer) and returns the first error the sink has seen — either a
// prior dropped write error or the flush's own. Events recorded after an
// error are silently dropped, so call Flush (or Close) before trusting a
// trace to be complete.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if f, ok := j.w.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			j.err = fmt.Errorf("telemetry: jsonl flush: %w", err)
		}
	}
	return j.err
}

// Close flushes and, when the underlying writer is an io.Closer, closes it.
// Like Flush it surfaces the first error observed over the sink's lifetime;
// a close error is reported only when no earlier error is pending.
func (j *JSONL) Close() error {
	err := j.Flush()
	j.mu.Lock()
	defer j.mu.Unlock()
	if c, ok := j.w.(io.Closer); ok {
		cerr := c.Close()
		if err == nil && cerr != nil {
			j.err = fmt.Errorf("telemetry: jsonl close: %w", cerr)
			err = j.err
		}
	}
	return err
}

// CreateJSONL creates the file at path and returns a JSONL sink writing to
// it through a 1 MiB buffer, with a closer that flushes, closes the file
// and returns their errors. Call it on failure too: the events recorded
// before a failure are the trace that explains it.
func CreateJSONL(path string) (*JSONL, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	j := NewJSONL(bufio.NewWriterSize(f, 1<<20))
	return j, func() error { return errors.Join(j.Flush(), f.Close()) }, nil
}

// AppendJSON appends ev encoded exactly as one JSONL trace line (including
// the trailing newline) and returns the extended buffer. It is the encoding
// JSONL writes, exposed for sinks that frame events differently — e.g. the
// server's SSE subscribers, which wrap each line in an event-stream frame.
func AppendJSON(b []byte, ev Event) []byte { return appendEvent(b, ev) }

// appendEvent encodes ev as one JSON line. Common fields first (kind, time,
// run label), then the kind-specific payload.
func appendEvent(b []byte, ev Event) []byte {
	b = append(b, `{"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","at_ns":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	if ev.Run != "" {
		b = appendStr(b, "run", ev.Run)
	}
	if ev.Policy != "" {
		b = appendStr(b, "policy", ev.Policy)
	}
	switch ev.Kind {
	case KindMachineStart:
		b = appendInt(b, "cores", ev.Cores)
		b = appendInt(b, "levels", ev.Levels)
		b = appendInt(b, "top_level", ev.TopLevel)
		b = appendInt(b, "quantum_ns", int(ev.Quantum))
	case KindQuantumStep:
		b = appendFloat(b, "utilization", ev.Utilization)
		b = appendFloat(b, "instructions", ev.Instructions)
		b = appendFloat(b, "llc_misses", ev.LLCMisses)
		b = appendInt(b, "completions", ev.Completions)
	case KindDVFSTransition:
		b = appendInt(b, "core", ev.Core)
		b = appendInt(b, "from", ev.FromLevel)
		b = appendInt(b, "to", ev.ToLevel)
	case KindPartitionMove:
		b = appendInt(b, "fg_ways", ev.FGWays)
		b = appendInt(b, "delta", ev.Delta)
		b = appendInt(b, "exec_count", ev.ExecCount)
		b = appendStr(b, "reason", string(ev.Reason))
	case KindTaskLaunch, KindTaskKill, KindTaskSwitch:
		b = appendInt(b, "task", ev.Task)
		b = appendInt(b, "core", ev.Core)
		b = appendStr(b, "name", ev.Name)
	case KindTaskPause, KindTaskResume:
		b = appendInt(b, "task", ev.Task)
		b = appendInt(b, "core", ev.Core)
	case KindSegmentPenalty:
		b = appendInt(b, "stream", ev.Stream)
		b = appendInt(b, "segment", ev.Segment)
		b = appendInt(b, "measured_ns", int(ev.Duration))
		b = appendInt(b, "penalty_ns", int(ev.Penalty))
		b = appendFloat(b, "alpha", ev.Alpha)
	case KindExecutionComplete:
		b = appendInt(b, "stream", ev.Stream)
		b = appendInt(b, "task", ev.Task)
		b = appendInt(b, "duration_ns", int(ev.Duration))
		b = appendFloat(b, "instructions", ev.Instructions)
		b = appendFloat(b, "llc_misses", ev.LLCMisses)
	case KindFineDecision:
		b = appendStr(b, "reason", string(ev.Reason))
		b = appendInt(b, "behind", ev.Behind)
		b = appendInt(b, "ahead", ev.Ahead)
		b = appendInt(b, "streams", ev.Streams)
		b = appendFloat(b, "worst_slack", ev.Slack)
		b = appendBool(b, "suppressed", ev.Suppressed)
	case KindFineAction:
		b = appendStr(b, "action", ev.Action.String())
		b = appendInt(b, "task", ev.Task)
		b = appendInt(b, "core", ev.Core)
		b = appendInt(b, "stream", ev.Stream)
	case KindCoarseDecision:
		b = appendStr(b, "reason", string(ev.Reason))
		b = appendInt(b, "delta", ev.Delta)
		b = appendInt(b, "fg_ways", ev.FGWays)
		b = appendInt(b, "exec_count", ev.ExecCount)
	case KindFault:
		b = appendStr(b, "class", string(ev.Reason))
		b = appendInt(b, "task", ev.Task)
		b = appendInt(b, "core", ev.Core)
		b = appendInt(b, "stream", ev.Stream)
		b = appendInt(b, "delay_ns", int(ev.Duration))
	case KindReprofile:
		b = appendInt(b, "stream", ev.Stream)
		b = appendFloat(b, "alpha_drift", ev.Alpha)
		b = appendInt(b, "duration_ns", int(ev.Duration))
		b = appendBool(b, "failed", ev.Suppressed)
	}
	b = append(b, '}', '\n')
	return b
}

func appendInt(b []byte, key string, v int) []byte {
	b = appendKey(b, key)
	return strconv.AppendInt(b, int64(v), 10)
}

func appendFloat(b []byte, key string, v float64) []byte {
	b = appendKey(b, key)
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendBool(b []byte, key string, v bool) []byte {
	b = appendKey(b, key)
	return strconv.AppendBool(b, v)
}

func appendStr(b []byte, key, v string) []byte {
	b = appendKey(b, key)
	b = strconv.AppendQuote(b, v)
	return b
}

func appendKey(b []byte, key string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return b
}
