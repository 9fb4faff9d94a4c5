package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"
)

// Trace accumulates phase spans for one compaction job. The store creates
// a Trace per job; the executor and the apply path add spans as phases
// complete (open_runs → merge → flush_table per output → manifest_apply;
// the FCAE executor adds build_images for the device-image serialization).
// A nil *Trace is safe: StartSpan returns a no-op closure, so executors
// instrument unconditionally.
type Trace struct {
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// Span is one recorded phase: Start is the offset from the trace origin.
type Span struct {
	Phase string        `json:"phase"`
	Start time.Duration `json:"start_nanos"`
	Dur   time.Duration `json:"dur_nanos"`
}

// NewTrace returns a trace whose origin is now.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// StartSpan begins timing a phase; calling the returned closure records
// the span. Dropping the closure (e.g. on an error path) records nothing.
func (t *Trace) StartSpan(phase string) func() {
	if t == nil {
		//fcae:alloc-ok a closure capturing nothing is static: it allocates nothing
		return func() {}
	}
	begin := time.Now()
	//fcae:alloc-ok one span per phase of a traced job, a table's flush the finest
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, Span{Phase: phase, Start: begin.Sub(t.start), Dur: end.Sub(begin)})
		t.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans in completion order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// TraceRecord is the JSONL form of one finished compaction, written by
// TraceWriter: one line per job, durations in nanoseconds.
type TraceRecord struct {
	Job         uint64      `json:"job"`
	Level       int         `json:"level"`
	OutputLevel int         `json:"output_level"`
	Executor    string      `json:"executor,omitempty"`
	TrivialMove bool        `json:"trivial_move,omitempty"`
	Fallback    bool        `json:"sw_fallback,omitempty"`
	Lane        Lane        `json:"lane,omitempty"`
	RouteReason RouteReason `json:"route_reason,omitempty"`
	// Priority is omitted for PriorityDeep (the zero value): an absent
	// field decodes as a deep-level job.
	Priority      Priority `json:"priority,omitempty"`
	DeviceTries   int      `json:"device_attempts,omitempty"`
	Inputs        []uint64 `json:"inputs,omitempty"`
	Outputs       []uint64 `json:"outputs,omitempty"`
	PairsIn       int      `json:"pairs_in"`
	PairsOut      int      `json:"pairs_out"`
	PairsDropped  int      `json:"pairs_dropped"`
	BytesRead     int64    `json:"bytes_read"`
	BytesWritten  int64    `json:"bytes_written"`
	KernelNanos   int64    `json:"kernel_nanos"`
	TransferNanos int64    `json:"transfer_nanos"`
	WallNanos     int64    `json:"wall_nanos"`
	Error         string   `json:"error,omitempty"`
	Spans         []Span   `json:"spans,omitempty"`
}

// NewTraceRecord flattens a CompactionEnd event into its JSONL form.
func NewTraceRecord(e CompactionEndEvent) TraceRecord {
	rec := TraceRecord{
		Job:           e.JobID,
		Level:         e.Level,
		OutputLevel:   e.OutputLevel,
		Executor:      e.Executor,
		TrivialMove:   e.TrivialMove,
		Fallback:      e.Fallback,
		Lane:          e.Lane,
		RouteReason:   e.RouteReason,
		Priority:      e.Priority,
		DeviceTries:   e.DeviceAttempts,
		PairsIn:       e.PairsIn,
		PairsOut:      e.PairsOut,
		PairsDropped:  e.PairsDropped,
		BytesRead:     e.BytesRead,
		BytesWritten:  e.BytesWritten,
		KernelNanos:   e.KernelTime.Nanoseconds(),
		TransferNanos: e.TransferTime.Nanoseconds(),
		WallNanos:     e.Wall.Nanoseconds(),
		Spans:         e.Trace.Spans(),
	}
	for _, t := range e.Inputs {
		rec.Inputs = append(rec.Inputs, t.Num)
	}
	for _, t := range e.Outputs {
		rec.Outputs = append(rec.Outputs, t.Num)
	}
	if e.Err != nil {
		rec.Error = e.Err.Error()
	}
	return rec
}

// TraceWriter is an EventListener that writes one TraceRecord JSON line
// per finished compaction, the `dbbench -trace out.jsonl` format. It
// ignores every other event; combine it with other listeners via
// MultiListener. Safe for concurrent use.
type TraceWriter struct {
	NoopListener

	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTraceWriter returns a TraceWriter appending to w. The caller owns w
// and closes it after the database is closed.
func NewTraceWriter(w io.Writer) *TraceWriter { return &TraceWriter{w: w} }

// CompactionEnd implements EventListener.
func (tw *TraceWriter) CompactionEnd(e CompactionEndEvent) {
	line, err := json.Marshal(NewTraceRecord(e))
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return
	}
	if err != nil {
		tw.err = err
		return
	}
	if _, err := tw.w.Write(append(line, '\n')); err != nil {
		tw.err = err
	}
}

// Err returns the first marshal or write error, if any.
func (tw *TraceWriter) Err() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.err
}

// ErrListenerPanic marks a BackgroundError produced by a recovered
// listener panic (Op == "listener").
var ErrListenerPanic = errors.New("obs: listener panicked")
