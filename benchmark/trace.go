package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fcae"
)

// span is one timed interval recorded by the benchmark's own wrappers
// around a call into a layer. Parent is the enclosing span on the same
// request; Cause names the span that made a background span happen.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Cause  uint64 `json:"cause,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer hands out span ids and collects the buffers spans were recorded
// into. Spans stay in memory until write. A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanBuf is one goroutine's span list: appends take no lock.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// add records a finished span and returns its id.
func (b *spanBuf) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := b.reserve()
	b.finish(id, name, parent, 0, req, start, end)
	return id
}

// reserve returns an id for a span whose children are recorded before it
// ends; finish records it under that id.
func (b *spanBuf) reserve() uint64 {
	if b == nil {
		return 0
	}
	return b.t.nextID.Add(1)
}

func (b *spanBuf) finish(id uint64, name string, parent, cause, req uint64, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Cause: cause, Req: req, Name: name,
		Start: start.Sub(b.t.origin).Nanoseconds(), Dur: end.Sub(start).Nanoseconds(),
	})
}

// all returns every recorded span with its self time filled in: the
// span's duration minus the part of it its children cover.
func (t *tracer) all() []span {
	t.mu.Lock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	t.mu.Unlock()
	fillSelfTimes(out)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func fillSelfTimes(spans []span) {
	type interval struct{ lo, hi int64 }
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.Start + s.Dur})
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.Start+s.Dur)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.Dur - covered
	}
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) (int, error) {
	spans := t.all()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// storeEvents is the EventListener every store under test gets. It sums
// what the per-layer metrics need (time in flushes, compactions, their
// merge and manifest phases, stalls) and, when tracing, turns each event
// into a span on the background track.
type storeEvents struct {
	fcae.NoopListener

	mu  sync.Mutex
	buf *spanBuf // nil when not tracing
	// Jobs in flight, by job id; the newest of each kind is what a stall
	// that begins now is waiting for.
	flushing, compacting map[uint64]jobStart
	lastFlush            uint64 // span of the newest finished flush
	newestFlush          uint64 // span of the newest flush in flight, 0 if none
	newestCompaction     uint64
	stallBegin           []time.Time

	flushNanos    int64
	flushes       int64
	compactNanos  int64
	mergeNanos    int64
	manifestNanos int64
	compactions   int64
	bgErrors      int64
}

// jobStart is when a background job began and the span id reserved for it.
type jobStart struct {
	at   time.Time
	span uint64
}

func newStoreEvents(t *tracer) *storeEvents {
	return &storeEvents{buf: t.buffer(), flushing: map[uint64]jobStart{}, compacting: map[uint64]jobStart{}}
}

// eventTotals is a copy of the listener's sums, so two copies can be
// subtracted to cover just the measured interval.
type eventTotals struct {
	flushNanos, flushes, compactNanos, mergeNanos, manifestNanos, compactions, bgErrors int64
}

func (e *storeEvents) totals() eventTotals {
	e.mu.Lock()
	defer e.mu.Unlock()
	return eventTotals{e.flushNanos, e.flushes, e.compactNanos, e.mergeNanos, e.manifestNanos, e.compactions, e.bgErrors}
}

func (a eventTotals) sub(b eventTotals) eventTotals {
	return eventTotals{
		a.flushNanos - b.flushNanos, a.flushes - b.flushes, a.compactNanos - b.compactNanos,
		a.mergeNanos - b.mergeNanos, a.manifestNanos - b.manifestNanos, a.compactions - b.compactions,
		a.bgErrors - b.bgErrors,
	}
}

func (e *storeEvents) FlushBegin(ev fcae.FlushBeginEvent) {
	e.mu.Lock()
	js := jobStart{time.Now(), e.buf.reserve()}
	e.flushing[ev.JobID], e.newestFlush = js, js.span
	e.mu.Unlock()
}

func (e *storeEvents) FlushEnd(ev fcae.FlushEndEvent) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushNanos += ev.Wall.Nanoseconds()
	e.flushes++
	js, ok := e.flushing[ev.JobID]
	if !ok {
		return
	}
	delete(e.flushing, ev.JobID)
	if e.newestFlush == js.span {
		e.newestFlush = 0
	}
	e.lastFlush = js.span
	e.buf.finish(js.span, "lsm.flush", 0, 0, 0, js.at, now)
}

func (e *storeEvents) CompactionBegin(ev fcae.CompactionBeginEvent) {
	e.mu.Lock()
	js := jobStart{time.Now(), e.buf.reserve()}
	e.compacting[ev.JobID], e.newestCompaction = js, js.span
	e.mu.Unlock()
}

func (e *storeEvents) CompactionEnd(ev fcae.CompactionEndEvent) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	js, ok := e.compacting[ev.JobID]
	delete(e.compacting, ev.JobID)
	if e.newestCompaction == js.span {
		e.newestCompaction = 0
	}
	if ev.TrivialMove {
		return
	}
	e.compactions++
	e.compactNanos += ev.Wall.Nanoseconds()
	spans := ev.Trace.Spans()
	for _, s := range spans {
		switch s.Phase {
		case "merge":
			e.mergeNanos += s.Dur.Nanoseconds()
		case "manifest_apply":
			e.manifestNanos += s.Dur.Nanoseconds()
		}
	}
	if !ok {
		return
	}
	// The job's own phase spans are offsets from the job's start; the
	// Begin event marks that start to within the listener's delivery lag.
	for _, s := range spans {
		e.buf.add("compaction."+s.Phase, js.span, 0, js.at.Add(s.Start), js.at.Add(s.Start+s.Dur))
	}
	cause := uint64(0)
	if ev.Level == 0 {
		cause = e.lastFlush // an L0 job exists because flushes piled up
	}
	e.buf.finish(js.span, "lsm.compaction", 0, cause, 0, js.at, now)
}

func (e *storeEvents) WriteStallBegin(fcae.WriteStallBeginEvent) {
	e.mu.Lock()
	e.stallBegin = append(e.stallBegin, time.Now())
	e.mu.Unlock()
}

// WriteStallEnd records the stall and names what the writer waited for: a
// full memtable waits for the flush in flight, an L0 limit for the
// compaction in flight.
func (e *storeEvents) WriteStallEnd(ev fcae.WriteStallEndEvent) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.stallBegin)
	if n == 0 {
		return
	}
	begin := e.stallBegin[n-1]
	e.stallBegin = e.stallBegin[:n-1]
	cause := e.newestCompaction
	if ev.Reason == fcae.StallMemTableFull {
		cause = e.newestFlush
	}
	e.buf.finish(e.buf.reserve(), "lsm.write_stall."+ev.Reason.String(), 0, cause, 0, begin, now)
}

func (e *storeEvents) BackgroundError(fcae.BackgroundErrorEvent) {
	e.mu.Lock()
	e.bgErrors++
	e.mu.Unlock()
}
