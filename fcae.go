// Package fcae is an LSM-tree key-value store with an FPGA compaction
// acceleration engine (FCAE), reproducing "FPGA-based Compaction Engine
// for Accelerating LSM-tree Key-Value Stores" (Sun, Yu, Zhou, Xue — ICDE
// 2020). The store is a from-scratch LevelDB-style database; the engine is
// a functional simulator of the paper's KCU1500 pipeline that executes the
// same merges the hardware would while accounting device cycles with the
// paper's pipeline model.
//
// The API groups into four areas:
//
//   - Database lifecycle: Open, Repair, DB and its Put/Get/Write/Iterator
//     methods, Batch, Snapshot. The zero Options value is a working
//     configuration (the paper's Table IV defaults); Options.Validate
//     rejects contradictory settings with a descriptive error instead of
//     silently clamping them.
//
//   - Engine configuration: EngineConfig describes a synthesized engine
//     by the triple Table VII sweeps (decoder lanes N, value lane width
//     V, read width W_in) on the paper's fixed 200 MHz card;
//     DefaultEngineConfig and MultiInputEngineConfig are the paper's two
//     build points, and NewEngineExecutor turns one into a device channel
//     for Options.DispatchConfig.Devices. No devices means the software
//     compactor, the paper's CPU baseline.
//
//   - Observability: an EventListener set in Options receives typed
//     lifecycle events (flushes, compactions with per-phase Trace spans
//     and modeled kernel/PCIe transfer time, write stalls, table
//     lifecycle, background errors); DB.Metrics snapshots the named
//     counter/gauge/histogram registry alongside the flat DB.Stats.
//     Events are sequenced under the store mutex but delivered strictly
//     outside it — listeners may read DB state but must not invoke
//     blocking operations such as Flush or Close.
//
//   - Network service: OpenServer serves a store over TCP (pipelined
//     binary protocol, stall-aware write admission, an HTTP admin plane
//     with /metrics and /healthz; concurrent client writes share commits
//     in the store's own writer queue);
//     DialServer returns the pooled pipelining Client. cmd/fcaeserver is
//     the standalone binary.
//
// Quickstart:
//
//	var opts fcae.Options
//	opts.DispatchConfig.Devices = []fcae.CompactionExecutor{
//		fcae.MustNewEngineExecutor(fcae.MultiInputEngineConfig()),
//	}
//	db, err := fcae.Open(dir, opts)
//	...
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//
// Leaving Devices empty selects the software (CPU) compactor.
package fcae

import (
	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/corruption"
	"fcae/internal/dispatch"
	"fcae/internal/lsm"
	"fcae/internal/obs"
	"fcae/internal/server"
	"fcae/internal/server/client"
)

// Database lifecycle types. See the lsm package for method documentation.
type (
	// DB is the key-value store handle.
	DB = lsm.DB
	// Options configure Open; the zero value uses the paper's defaults
	// (Table IV: 16-byte keys are a workload property; 4 KiB blocks,
	// leveling ratio 10, 2 MiB tables). Options.Validate reports
	// contradictory settings; Open calls it for you.
	Options = lsm.Options
	// Batch is an atomic group of writes.
	Batch = lsm.Batch
	// Iterator walks user keys in ascending order at a fixed snapshot.
	// Key and Value return read-only views — going forward, Value is the
	// table block's own bytes — valid until the next positioning call or
	// Close; copy what must outlive that, write into neither. A closed
	// iterator stays closed: every positioning call on it returns false
	// and Error reports ErrClosed.
	Iterator = lsm.Iterator
	// Snapshot is a consistent read view.
	Snapshot = lsm.Snapshot
	// Stats aggregates operational counters, including the engine's
	// modeled kernel and PCIe transfer time.
	Stats = lsm.Stats
)

// Engine types for configuring the FCAE backend.
type (
	// EngineConfig describes one synthesized engine: decoder lanes N,
	// value lane width V and read width WIn, the triple Table VII sweeps;
	// two switches that turn off a pipeline optimization for ablation
	// (key-value separation, index/data separation), whose zero value is
	// the paper's design; and StagingBytes, the channel's staging arena
	// (0 = modeled default, negative is invalid). The clock, the write
	// width and the DRAM latency are the card's and fixed.
	EngineConfig = core.Config
	// EngineUtilization is a chip resource estimate (paper Table VII).
	EngineUtilization = core.Utilization
	// CompactionExecutor executes merge jobs; implemented by the CPU
	// reference executor and the FCAE engine executor.
	CompactionExecutor = compaction.Executor
)

// Offload-scheduler types. Options.DispatchConfig consolidates the device
// channel pool, the shared flush/compaction worker-pool size, the fault
// injector and the scheduler tuning in one place. DB.DispatchStats reports
// the per-lane routing counters.
type (
	// DispatchConfig consolidates the offload scheduler's configuration:
	// device channels, shared worker-pool size, fault injection and
	// tuning. Set it in Options.DispatchConfig; it has its own Validate.
	DispatchConfig = lsm.DispatchConfig
	// DispatchTuning sets the offload scheduler's device deadline, retry
	// policy and image budget. At most two calls per device channel wait
	// for one. The zero value picks working defaults.
	DispatchTuning = dispatch.Tuning
	// Lane identifies which dispatch lane completed a merge: LaneCPU,
	// DeviceLane(i), or the zero LaneNone for undispatched work.
	Lane = obs.Lane
	// RouteReason explains why a job routed to the CPU lane; the zero
	// RouteNone means it completed on a device.
	RouteReason = obs.RouteReason
	// Priority is a compaction job's dispatch priority: a PriorityL0 job
	// waits for a device channel ahead of every PriorityDeep one.
	Priority = obs.Priority
	// DispatchStats is a snapshot of the scheduler's routing counters:
	// device vs CPU jobs, per-lane totals, faults, timeouts, retries and
	// the per-reason fallback counts.
	DispatchStats = dispatch.Stats
	// FaultInjector decides, per device attempt, whether and how the
	// simulated device misbehaves. Set it in
	// Options.DispatchConfig.FaultInjector.
	FaultInjector = dispatch.FaultInjector
	// Fault is one injected misbehavior: an error, a mid-merge write
	// failure, a stall or added latency.
	Fault = dispatch.Fault
	// FaultKind enumerates the injectable misbehaviors.
	FaultKind = dispatch.FaultKind
)

// Fault kinds for FaultInjector implementations.
const (
	// FaultNone leaves the attempt untouched.
	FaultNone = dispatch.FaultNone
	// FaultError fails the attempt immediately.
	FaultError = dispatch.FaultError
	// FaultWrite fails the attempt mid-merge after some output bytes.
	FaultWrite = dispatch.FaultWrite
	// FaultStall hangs the attempt until the device deadline cuts it.
	FaultStall = dispatch.FaultStall
	// FaultSlow adds latency without failing.
	FaultSlow = dispatch.FaultSlow
)

// Dispatch lanes, route reasons and priorities carried by compaction
// events, traces and DispatchStats.
const (
	// LaneNone marks undispatched work (trivial moves).
	LaneNone = obs.LaneNone
	// LaneCPU is the host software lane.
	LaneCPU = obs.LaneCPU

	// RouteNone: the job completed on a device.
	RouteNone = obs.RouteNone
	// RouteNoDevice: no device channels are configured.
	RouteNoDevice = obs.RouteNoDevice
	// RouteFanIn: the job exceeded the engine's input width.
	RouteFanIn = obs.RouteFanIn
	// RouteImageBudget: the input images exceeded the device image budget.
	RouteImageBudget = obs.RouteImageBudget
	// RouteArena: the job did not fit the per-channel staging arena.
	RouteArena = obs.RouteArena
	// RouteSaturated: no device channel was idle and the wait list was full.
	RouteSaturated = obs.RouteSaturated
	// RouteDeviceFault: device attempts exhausted the retry budget.
	RouteDeviceFault = obs.RouteDeviceFault

	// PriorityDeep is the default priority for deep-level compactions.
	PriorityDeep = obs.PriorityDeep
	// PriorityL0 marks flush-driven L0 jobs; they take a channel first.
	PriorityL0 = obs.PriorityL0
)

// DeviceLane returns the Lane for device channel i (0-based).
func DeviceLane(i int) Lane { return obs.DeviceLane(i) }

// NewProbInjector returns a FaultInjector that faults a device attempt
// with the given probability (split evenly across error, mid-merge write
// failure and stall), deterministically per seed.
var NewProbInjector = dispatch.NewProbInjector

// NewScriptInjector returns a FaultInjector that replays the given fault
// script in order, then injects nothing. Intended for tests.
var NewScriptInjector = dispatch.NewScriptInjector

// Observability types. An EventListener set in Options.EventListener
// receives typed lifecycle events; DB.Metrics returns a Metrics snapshot
// of the named instrument registry. See the obs package for the full
// delivery contract.
type (
	// EventListener receives store lifecycle events. Embed NoopListener
	// to stay forward-compatible as events are added.
	EventListener = obs.EventListener
	// NoopListener implements EventListener with empty methods.
	NoopListener = obs.NoopListener
	// MultiListener fans events out to several listeners in order.
	MultiListener = obs.MultiListener

	// FlushBeginEvent announces an immutable-memtable flush.
	FlushBeginEvent = obs.FlushBeginEvent
	// FlushEndEvent reports a finished (or failed) flush.
	FlushEndEvent = obs.FlushEndEvent
	// CompactionBeginEvent announces a scheduled compaction.
	CompactionBeginEvent = obs.CompactionBeginEvent
	// CompactionEndEvent reports a finished compaction: inputs, outputs,
	// pairs merged/dropped, executor, modeled kernel + transfer time and
	// the per-phase Trace.
	CompactionEndEvent = obs.CompactionEndEvent
	// WriteStallBeginEvent announces a foreground write throttle.
	WriteStallBeginEvent = obs.WriteStallBeginEvent
	// WriteStallEndEvent reports the end of a write throttle.
	WriteStallEndEvent = obs.WriteStallEndEvent
	// TableCreatedEvent reports a new live table file.
	TableCreatedEvent = obs.TableCreatedEvent
	// TableDeletedEvent reports removal of an obsolete table file.
	TableDeletedEvent = obs.TableDeletedEvent
	// BackgroundErrorEvent reports a background failure or a recovered
	// listener panic.
	BackgroundErrorEvent = obs.BackgroundErrorEvent
	// TableInfo identifies one table file inside an event.
	TableInfo = obs.TableInfo
	// StallReason says why a write throttled.
	StallReason = obs.StallReason

	// Metrics is a typed snapshot of the store's metric registry, with
	// JSON and expvar-style text encoders.
	Metrics = obs.Metrics
	// HistogramSnapshot is one histogram's state inside a Metrics.
	HistogramSnapshot = obs.HistogramSnapshot
	// Trace holds a compaction's phase spans (open_runs, build_images,
	// merge, flush_table, manifest_apply).
	Trace = obs.Trace
	// Span is one recorded trace phase.
	Span = obs.Span
	// TraceWriter is an EventListener writing one JSON line per finished
	// compaction, the `dbbench -trace` format.
	TraceWriter = obs.TraceWriter
	// TraceRecord is the JSONL schema TraceWriter emits.
	TraceRecord = obs.TraceRecord
)

// Stall reasons carried by WriteStallBegin/End events.
const (
	// StallL0Slowdown is the soft 1 ms throttle when L0 backs up.
	StallL0Slowdown = obs.StallL0Slowdown
	// StallMemTableFull waits on the previous memtable flush.
	StallMemTableFull = obs.StallMemTableFull
	// StallL0Stop is the hard stop at the L0 file-count limit.
	StallL0Stop = obs.StallL0Stop
)

// NewTraceWriter returns a TraceWriter appending JSONL trace records to w.
// Set it as (or inside) Options.EventListener.
var NewTraceWriter = obs.NewTraceWriter

// Errors re-exported from the store.
var (
	// ErrNotFound is returned by Get when a key has no value.
	ErrNotFound = lsm.ErrNotFound
	// ErrClosed is returned after Close.
	ErrClosed = lsm.ErrClosed
	// ErrCorruption is the class of every error that means bytes the store
	// wrote came back damaged; test for it with errors.Is. It covers a
	// table whose footer, index, filter or data block fails its checksum
	// or does not parse (from Get, iterators and compaction; Repair sets
	// such a table aside instead), a MANIFEST record that fails its
	// checksum or does not decode, a logged write batch that does not
	// parse, and a damaged write-ahead log (Open names it; Repair keeps its
	// records ahead of the damage) — except the torn tail a crash leaves:
	// damage in a log with no intact record after it, where that log's
	// replay stops and Open succeeds (a damaged record length hides the
	// rest of its 32 KiB block, so records there go unchecked). Nor does
	// it cover I/O errors.
	ErrCorruption = corruption.Err
)

// Network service types. OpenServer starts the TCP KV service (pipelined
// length-prefixed binary protocol with out-of-order responses,
// stall-aware write admission, and an HTTP admin plane serving /metrics
// and /healthz; writes go straight to DB.Write, whose writer queue is the
// one place they are grouped); DialServer returns the
// pooled, pipelining client for it. cmd/fcaeserver wraps OpenServer as a
// standalone binary.
type (
	// Server is the TCP KV service handle. Close drains connections and
	// closes the store.
	Server = server.Server
	// ServerConfig tunes the server: listen addresses, the in-flight
	// bound, frame and scan limits, the response write timeout.
	ServerConfig = server.Config
	// Client is the pooled, pipelining network client.
	Client = client.Client
	// ClientOptions configures DialServer: address, pool size, pipeline
	// depth, dial and per-op timeouts.
	ClientOptions = client.Options
	// ClientBatch accumulates Put/Delete ops for one atomic Client.Write.
	ClientBatch = server.Batch
	// ServerError carries a server-side error message across the wire.
	ServerError = client.ServerError
	// KV is one key/value pair in a Client.Scan result.
	KV = server.KV
)

// Network service errors.
var (
	// ErrServerBusy reports a write shed by the server's admission
	// control (the store is in a hard write stall); retry after backoff.
	ErrServerBusy = server.ErrServerBusy
	// ErrServerClosing reports a request rejected because the server is
	// draining.
	ErrServerClosing = server.ErrServerClosing
	// ErrClientClosed reports an operation on a closed Client.
	ErrClientClosed = client.ErrClientClosed
	// ErrOpTimeout reports a client operation that outlived its deadline.
	ErrOpTimeout = client.ErrOpTimeout
)

// OpenServer opens (creating if necessary) the store at dir and serves
// it on cfg.Addr. The returned Server owns the store: Server.Close
// drains and closes it.
func OpenServer(dir string, opts Options, cfg ServerConfig) (*Server, error) {
	return server.Open(dir, opts, cfg)
}

// DialServer connects a client pool to a Server's address.
func DialServer(opts ClientOptions) (*Client, error) { return client.Dial(opts) }

// Open opens (creating if necessary) a database in dir. Contradictory
// options are rejected with a descriptive error (see Options.Validate).
func Open(dir string, opts Options) (*DB, error) { return lsm.Open(dir, opts) }

// Repair rebuilds a database whose MANIFEST/CURRENT metadata is lost or
// corrupt from its table files alone. Run it BEFORE Open: opening a
// directory without metadata creates a fresh store and garbage-collects
// the orphaned tables. See lsm.Repair for semantics and limitations.
func Repair(dir string, opts Options) error { return lsm.Repair(dir, opts) }

// DefaultEngineConfig returns the paper's 2-input engine (V=16, W=64),
// which handles every level except L0 (paper §VII-B).
func DefaultEngineConfig() EngineConfig { return core.DefaultConfig() }

// MultiInputEngineConfig returns the 9-input engine of §VII-C (V=8, W_in=8
// so the design fits the chip), which also covers L0 compactions.
func MultiInputEngineConfig() EngineConfig { return core.MultiInputConfig() }

// NewEngineExecutor returns a compaction executor backed by a simulated
// FCAE engine with cfg: one device channel for
// Options.DispatchConfig.Devices (build one instance per channel). Jobs
// whose fan-in exceeds cfg.N fall back to software automatically (paper
// §VI-A). The executor also publishes engine_* gauges into DB.Metrics.
func NewEngineExecutor(cfg EngineConfig) (CompactionExecutor, error) {
	return core.NewExecutor(cfg)
}

// MustNewEngineExecutor is NewEngineExecutor, panicking on an invalid
// configuration. Intended for static configurations.
func MustNewEngineExecutor(cfg EngineConfig) CompactionExecutor {
	x, err := core.NewExecutor(cfg)
	if err != nil {
		panic(err)
	}
	return x
}
