// Package obs is the store's observability layer: typed events delivered
// to a user EventListener, a dependency-free metrics registry with typed
// snapshots, and per-compaction trace spans. It sits below every other
// package (stdlib imports only) so that lsm, compaction and core can all
// publish into it without import cycles.
//
// Delivery contract: the database sequences events under its central
// mutex (so listeners observe the same order the state machine executed)
// but invokes listener methods strictly OUTSIDE any database lock, one
// event at a time. Listener implementations may therefore call quick
// read-side methods such as DB.Stats or DB.Metrics, but must not invoke
// blocking operations (Flush, CompactLevel, Close) — those wait on the
// background workers that are busy delivering the event — nor anything
// that delivers events itself: writes, and reads through Get or an
// iterator (the reader that drops the last reference to a superseded
// version sweeps its tables and reports them deleted). Because delivery
// happens outside the lock, an event may be observed shortly after the
// state change it describes; the order is still exact.
//
// A panicking listener is recovered by the database and surfaced as a
// BackgroundError event rather than crashing the background worker.
package obs

import "time"

// EventListener receives store lifecycle events. Embed NoopListener to
// remain forward-compatible as events are added.
type EventListener interface {
	// FlushBegin fires when an immutable memtable starts flushing to L0.
	FlushBegin(FlushBeginEvent)
	// FlushEnd fires when the flush finished (or failed; see Err).
	FlushEnd(FlushEndEvent)
	// CompactionBegin fires when a merge compaction (or trivial move) is
	// scheduled, before any input bytes are read.
	CompactionBegin(CompactionBeginEvent)
	// CompactionEnd fires when the compaction's version edit is applied
	// (or the job failed; see Err). It carries the full job breakdown,
	// including the modeled kernel and PCIe transfer time and the trace.
	CompactionEnd(CompactionEndEvent)
	// WriteStallBegin fires when a foreground write begins throttling.
	WriteStallBegin(WriteStallBeginEvent)
	// WriteStallEnd fires when the stalled write resumes.
	WriteStallEnd(WriteStallEndEvent)
	// TableCreated fires after a flush or compaction output table becomes
	// part of the live version.
	TableCreated(TableCreatedEvent)
	// TableDeleted fires after an obsolete table file is removed.
	TableDeleted(TableDeletedEvent)
	// BackgroundError fires when a background worker hits an error (the
	// database stops scheduling background work) or when a listener
	// callback panicked (Op == "listener"; the store keeps running).
	BackgroundError(BackgroundErrorEvent)
}

// TableInfo identifies one table file in an event.
type TableInfo struct {
	Num   uint64 `json:"num"`
	Level int    `json:"level"`
	Size  int64  `json:"size"`
}

// FlushBeginEvent announces an immutable memtable flush.
type FlushBeginEvent struct {
	JobID uint64
	// MemTableBytes is the approximate size of the memtable being flushed.
	MemTableBytes int64
}

// FlushEndEvent reports a finished flush.
type FlushEndEvent struct {
	JobID uint64
	// Output is the L0 table written; Num == 0 when the memtable was
	// empty and no table was produced.
	Output TableInfo
	// Wall is the flush duration (build + manifest apply).
	Wall time.Duration
	// PairsIn counts the memtable's entries; PairsDropped those the
	// shadowing rules left out of the table (versions no reader can see).
	PairsIn      int
	PairsDropped int
	// Err is non-nil when the flush failed; the store stops background
	// work with this error.
	Err error
}

// CompactionBeginEvent announces a scheduled compaction.
type CompactionBeginEvent struct {
	JobID uint64
	// Level is the source level; output lands on OutputLevel.
	Level       int
	OutputLevel int
	// TrivialMove marks a pure file move (no merge executes).
	TrivialMove bool
	// Priority is the dispatch priority the job was dispatched with
	// (PriorityL0 for L0-source jobs, PriorityDeep otherwise).
	Priority Priority
	// Inputs are the tables consumed, across both levels.
	Inputs []TableInfo
}

// CompactionEndEvent reports a finished compaction with the breakdown the
// paper's evaluation is built on (Tables II/III): merge work, modeled
// engine kernel time and PCIe transfer time, and the phase trace.
type CompactionEndEvent struct {
	JobID       uint64
	Level       int
	OutputLevel int
	TrivialMove bool
	// Executor is the backend that ran the merge ("cpu" or "fcae"); empty
	// for trivial moves.
	Executor string
	// Fallback is set when the job was routed to the CPU lane despite
	// device channels being configured (paper §VI-A fan-in overflow, queue
	// backpressure, image budget, or device fault).
	Fallback bool
	// Lane is the dispatch lane that completed the merge (a device
	// channel or LaneCPU); LaneNone for trivial moves and pre-dispatch
	// configurations.
	Lane Lane
	// RouteReason explains a CPU routing (RouteFanIn, RouteImageBudget,
	// RouteArena, RouteSaturated, RouteDeviceFault, RouteNoDevice);
	// RouteNone when the job ran on a device.
	RouteReason RouteReason
	// Priority is the dispatch priority the job was dispatched with.
	Priority Priority
	// DeviceAttempts counts device-lane attempts, including faulted ones.
	DeviceAttempts int
	Inputs         []TableInfo
	Outputs        []TableInfo
	// PairsIn/PairsOut/PairsDropped count key-value pairs merged and
	// dropped by the shadowing rules.
	PairsIn      int
	PairsOut     int
	PairsDropped int
	BytesRead    int64
	BytesWritten int64
	// Parts is how many key ranges the merge was cut into (1 for a merge
	// done whole, 0 for a trivial move); the CPU lane merges them at the
	// same time.
	Parts int
	// KernelTime is the modeled merge time (device cycles for the FCAE
	// executor); TransferTime is the modeled PCIe time.
	KernelTime   time.Duration
	TransferTime time.Duration
	// Wall is the real elapsed time of the whole job.
	Wall time.Duration
	// Trace records the job's phase spans (open_runs, merge, flush_table,
	// manifest_apply, ...). Nil for jobs that failed before tracing.
	Trace *Trace
	// Err is non-nil when the job failed.
	Err error
}

// StallReason says why a foreground write throttled.
type StallReason int

// Stall reasons, mirroring LevelDB's three write-throttle rules.
const (
	// StallL0Slowdown is the 1ms soft slowdown when L0 backs up.
	StallL0Slowdown StallReason = iota
	// StallMemTableFull waits for the previous memtable flush.
	StallMemTableFull
	// StallL0Stop is the hard stop at the L0 file-count limit.
	StallL0Stop
)

// String implements fmt.Stringer.
func (r StallReason) String() string {
	switch r {
	case StallL0Slowdown:
		return "l0-slowdown"
	case StallMemTableFull:
		return "memtable-full"
	case StallL0Stop:
		return "l0-stop"
	}
	return "unknown"
}

// WriteStallBeginEvent announces a foreground write throttle.
type WriteStallBeginEvent struct {
	Reason StallReason
}

// WriteStallEndEvent reports the end of a write throttle.
type WriteStallEndEvent struct {
	Reason   StallReason
	Duration time.Duration
}

// TableCreatedEvent reports a new live table file.
type TableCreatedEvent struct {
	// JobID is the flush or compaction that produced the table.
	JobID uint64
	Table TableInfo
}

// TableDeletedEvent reports removal of an obsolete table file.
type TableDeletedEvent struct {
	Num uint64
}

// BackgroundErrorEvent reports a background failure. Op is "flush",
// "compaction" or "listener" (a recovered listener panic).
type BackgroundErrorEvent struct {
	Op  string
	Err error
}

// NoopListener implements EventListener with empty methods. Embed it so
// a listener only overrides the events it cares about and stays
// compatible when new events are added.
type NoopListener struct{}

// FlushBegin implements EventListener.
func (NoopListener) FlushBegin(FlushBeginEvent) {}

// FlushEnd implements EventListener.
func (NoopListener) FlushEnd(FlushEndEvent) {}

// CompactionBegin implements EventListener.
func (NoopListener) CompactionBegin(CompactionBeginEvent) {}

// CompactionEnd implements EventListener.
func (NoopListener) CompactionEnd(CompactionEndEvent) {}

// WriteStallBegin implements EventListener.
func (NoopListener) WriteStallBegin(WriteStallBeginEvent) {}

// WriteStallEnd implements EventListener.
func (NoopListener) WriteStallEnd(WriteStallEndEvent) {}

// TableCreated implements EventListener.
func (NoopListener) TableCreated(TableCreatedEvent) {}

// TableDeleted implements EventListener.
func (NoopListener) TableDeleted(TableDeletedEvent) {}

// BackgroundError implements EventListener.
func (NoopListener) BackgroundError(BackgroundErrorEvent) {}

// MultiListener fans every event out to each listener in order.
type MultiListener []EventListener

// FlushBegin implements EventListener.
func (m MultiListener) FlushBegin(e FlushBeginEvent) {
	for _, l := range m {
		l.FlushBegin(e)
	}
}

// FlushEnd implements EventListener.
func (m MultiListener) FlushEnd(e FlushEndEvent) {
	for _, l := range m {
		l.FlushEnd(e)
	}
}

// CompactionBegin implements EventListener.
func (m MultiListener) CompactionBegin(e CompactionBeginEvent) {
	for _, l := range m {
		l.CompactionBegin(e)
	}
}

// CompactionEnd implements EventListener.
func (m MultiListener) CompactionEnd(e CompactionEndEvent) {
	for _, l := range m {
		l.CompactionEnd(e)
	}
}

// WriteStallBegin implements EventListener.
func (m MultiListener) WriteStallBegin(e WriteStallBeginEvent) {
	for _, l := range m {
		l.WriteStallBegin(e)
	}
}

// WriteStallEnd implements EventListener.
func (m MultiListener) WriteStallEnd(e WriteStallEndEvent) {
	for _, l := range m {
		l.WriteStallEnd(e)
	}
}

// TableCreated implements EventListener.
func (m MultiListener) TableCreated(e TableCreatedEvent) {
	for _, l := range m {
		l.TableCreated(e)
	}
}

// TableDeleted implements EventListener.
func (m MultiListener) TableDeleted(e TableDeletedEvent) {
	for _, l := range m {
		l.TableDeleted(e)
	}
}

// BackgroundError implements EventListener.
func (m MultiListener) BackgroundError(e BackgroundErrorEvent) {
	for _, l := range m {
		l.BackgroundError(e)
	}
}

// MetricsPublisher is implemented by components (e.g. the FCAE engine
// executor) that can register gauges into a Registry.
type MetricsPublisher interface {
	PublishMetrics(*Registry)
}
