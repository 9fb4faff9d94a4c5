// Package dispatch is the host-side compaction-offload scheduler (the
// paper's Fig. 6 routing box grown into a subsystem, following LUDA's
// observation that offload wins hinge on keeping the device busy, not on
// the kernel alone). It owns one bounded job queue feeding a pool of
// device channels — each wrapping one compaction executor instance, the
// analogue of one FCAE compaction unit — plus a software (CPU) lane, and
// routes every job through an admission policy, the first three rules of
// which are the pure function Admit that the simulator calls too:
//
//   - fan-in: jobs whose run count exceeds the device's N go to the CPU
//     lane (the paper's "#SSTable in L0 > N-1 → SW compaction" rule);
//   - image budget: jobs whose input bytes exceed the device image budget
//     go to the CPU lane (the images would not fit card DRAM);
//   - arena: jobs whose input bytes exceed the per-channel staging arena
//     go to the CPU lane (the images would not fit the channel's
//     persistent device-memory allocation);
//   - backpressure: when the device queue is full the job runs on the CPU
//     lane immediately instead of stalling the compaction worker;
//   - fault fallback: a device attempt that faults or times out is
//     retried with backoff, then degraded to the CPU lane — a flaky card
//     slows compaction down, it never wedges the store.
//
// Admitted jobs wait in one FIFO list, except that a PriorityL0 job (an
// L0→L1 compaction, which gates foreground writes) is inserted after the
// L0 jobs already waiting and ahead of every PriorityDeep job. A job on a
// channel is never preempted. Nothing ages: the store's level claims let
// at most one L0 merge be in flight per store, so a deep job waits behind
// at most one L0 job.
//
// The scheduler is deliberately oblivious to what a job merges: it sees
// compaction.Job/Env and returns compaction.Result, so the lsm layer's
// manifest bookkeeping is untouched by routing decisions.
package dispatch

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"fcae/internal/compaction"
	"fcae/internal/obs"
)

// Lane identifies the lane that completed a job (see obs.Lane).
type Lane = obs.Lane

// RouteReason explains a CPU routing (see obs.RouteReason).
type RouteReason = obs.RouteReason

// Priority decides where a job enters the queue (see obs.Priority).
type Priority = obs.Priority

// Priorities, low to high.
const (
	// PriorityDeep is the default for deep-level compactions.
	PriorityDeep = obs.PriorityDeep
	// PriorityL0 marks flush-driven L0 jobs; they queue ahead of deep ones.
	PriorityL0 = obs.PriorityL0
)

// Route reasons reported in Route.Reason and the obs trace records.
const (
	// ReasonFanIn: the job's run count exceeded the device's MaxRuns.
	ReasonFanIn = obs.RouteFanIn
	// ReasonBudget: the job's input bytes exceeded DeviceImageBudget.
	ReasonBudget = obs.RouteImageBudget
	// ReasonArena: the job would not fit the per-channel staging arena,
	// at admission (sized check) or at run time (builder exhausted it).
	ReasonArena = obs.RouteArena
	// ReasonSaturated: the device queue was full at admission.
	ReasonSaturated = obs.RouteSaturated
	// ReasonFault: device attempts faulted until retries were exhausted.
	ReasonFault = obs.RouteDeviceFault
	// ReasonNoDevice: the scheduler has no device channels configured.
	ReasonNoDevice = obs.RouteNoDevice
)

// ArenaSizer is implemented by device executors that stage jobs in a
// persistent device-memory arena (core.Executor). The scheduler uses it
// for admission: jobs whose input bytes exceed the smallest channel's
// budget route to the CPU lane up front instead of failing mid-build.
type ArenaSizer interface {
	// ArenaBytes is the arena's total capacity (0 = no arena).
	ArenaBytes() int64
	// ArenaInputBudget is the largest job input size the arena can
	// stage (0 = no arena, unlimited admission).
	ArenaInputBudget() int64
	// ArenaHighWater is the peak arena occupancy over the channel's
	// lifetime (0 = no arena). Unlike the two sizing bounds it moves
	// while the scheduler runs, so Stats reads it per snapshot.
	ArenaHighWater() int64
}

// Pool is what offload admission knows about the device channels: how
// many there are and the weakest channel's limits. Zero limits are
// unlimited.
type Pool struct {
	// Channels is the device channel count; 0 runs every job on the CPU.
	Channels int
	// MaxRuns is the smallest positive executor fan-in (the engine's N).
	MaxRuns int
	// ImageBudget is Tuning.DeviceImageBudget.
	ImageBudget int64
	// ArenaBudget is the smallest positive channel arena input budget.
	ArenaBudget int64
}

// Admit decides whether a job of runs sorted inputs and inputBytes may
// queue for a device channel: it returns obs.RouteNone when it may, else
// the reason it runs on the CPU lane. It is the one statement of the
// paper's §VI-A software-fallback rule, called by Scheduler.Execute and by
// the simulator (package lsmsim). The saturated and mid-build arena routes
// depend on queue and runtime state, so Execute takes them itself.
func Admit(p Pool, runs int, inputBytes int64) RouteReason {
	switch {
	case p.Channels == 0:
		return ReasonNoDevice
	case p.MaxRuns > 0 && runs > p.MaxRuns:
		return ReasonFanIn
	case p.ImageBudget > 0 && inputBytes > p.ImageBudget:
		return ReasonBudget
	case p.ArenaBudget > 0 && inputBytes > p.ArenaBudget:
		return ReasonArena
	}
	return obs.RouteNone
}

// Tuning bounds the scheduler's device attempts and retries. The zero
// value selects the documented defaults.
type Tuning struct {
	// DeviceDeadline caps one device attempt's stall time (default 2s).
	// Only injected stalls are cut short — a merge that is actually
	// executing is never abandoned, so no orphan writer survives a
	// timeout.
	DeviceDeadline time.Duration
	// MaxDeviceRetries is how many times a faulted job is re-dispatched
	// to the device pool before falling back to the CPU lane (default 1;
	// set -1 to disable retries).
	MaxDeviceRetries int
	// RetryBackoff is the base backoff between device retries, scaled
	// linearly by attempt number (default 10ms).
	RetryBackoff time.Duration
	// DeviceImageBudget caps the input bytes of a device job; larger jobs
	// route to the CPU lane. 0 means unlimited.
	DeviceImageBudget int64
}

// Validate rejects nonsensical tuning values.
func (t Tuning) Validate() error {
	neg := func(name string, v int64) error {
		return fmt.Errorf("dispatch: invalid Tuning: %s is negative (%d)", name, v)
	}
	switch {
	case t.DeviceDeadline < 0:
		return neg("DeviceDeadline", int64(t.DeviceDeadline))
	case t.MaxDeviceRetries < -1:
		return fmt.Errorf("dispatch: invalid Tuning: MaxDeviceRetries is %d (minimum -1)", t.MaxDeviceRetries)
	case t.RetryBackoff < 0:
		return neg("RetryBackoff", int64(t.RetryBackoff))
	case t.DeviceImageBudget < 0:
		return neg("DeviceImageBudget", t.DeviceImageBudget)
	}
	return nil
}

func (t Tuning) withDefaults() Tuning {
	if t.DeviceDeadline == 0 {
		t.DeviceDeadline = 2 * time.Second
	}
	if t.MaxDeviceRetries == 0 {
		t.MaxDeviceRetries = 1
	}
	if t.MaxDeviceRetries < 0 {
		t.MaxDeviceRetries = 0
	}
	if t.RetryBackoff == 0 {
		t.RetryBackoff = 10 * time.Millisecond
	}
	return t
}

// Config assembles a Scheduler.
type Config struct {
	// Devices are the device channels, one executor instance per channel
	// (instances must not be shared: each is one simulated compaction
	// unit with its own pipeline). Empty means every job runs on the CPU
	// lane.
	Devices []compaction.Executor
	// CPU is the software fallback lane; nil selects compaction.CPU.
	CPU compaction.Executor
	// Injector, when non-nil, is consulted once per device attempt.
	Injector FaultInjector
	// Tuning bounds queueing and retries; zero value = defaults.
	Tuning Tuning
}

// Route describes where one job ran and why.
type Route struct {
	// Lane is the device channel or obs.LaneCPU.
	Lane Lane
	// Executor is the Name() of the executor that produced the result.
	Executor string
	// Reason explains a CPU routing (RouteNone when the job ran on a
	// device, or when the scheduler has devices and chose one by
	// default).
	Reason RouteReason
	// DeviceAttempts counts device-lane attempts, including faulted ones.
	DeviceAttempts int
	// Faults counts injected faults and timeouts observed by this job.
	Faults int
}

// OnDevice reports whether the job completed on a device channel.
func (r Route) OnDevice() bool { return r.Lane.IsDevice() }

// Fallback reports whether the job ran on the CPU lane despite device
// channels being configured — the stat the paper's Fig. 6 "SW compaction"
// arrow counts. A pure-CPU configuration is not a fallback.
func (r Route) Fallback() bool {
	return r.Lane == obs.LaneCPU && r.Reason != obs.RouteNone && r.Reason != ReasonNoDevice
}

// Stats is a snapshot of the scheduler's routing counters.
type Stats struct {
	// DeviceJobs / CPUJobs count completed merges per lane class.
	DeviceJobs int64 `json:"device_jobs"`
	CPUJobs    int64 `json:"cpu_jobs"`
	// LaneJobs breaks DeviceJobs down per device channel.
	LaneJobs []int64 `json:"lane_jobs,omitempty"`
	// Faults counts injected device faults (including timeouts); Timeouts
	// counts the deadline subset. Retries counts re-dispatches.
	Faults   int64 `json:"faults"`
	Timeouts int64 `json:"timeouts"`
	Retries  int64 `json:"retries"`
	// CPU-fallback routings by reason.
	FallbackFanIn     int64 `json:"fallback_fanin"`
	FallbackBudget    int64 `json:"fallback_budget"`
	FallbackArena     int64 `json:"fallback_arena"`
	FallbackSaturated int64 `json:"fallback_saturated"`
	FallbackFault     int64 `json:"fallback_fault"`
	// QueueDepth is the instantaneous device-queue occupancy.
	QueueDepth int `json:"queue_depth"`
	// ArenaBytes is the summed staging-arena capacity across channels.
	ArenaBytes int64 `json:"arena_bytes"`
	// ArenaHighWater is each channel's peak staging-arena occupancy
	// (indexed like LaneJobs; 0 for channels without an arena). Peaks
	// near the per-channel capacity mean jobs are about to spill to
	// heap fallback; peaks far below it mean the carve is oversized.
	ArenaHighWater []int64 `json:"arena_high_water,omitempty"`
}

// request is one job handed to a device channel.
type request struct {
	job *compaction.Job
	env compaction.Env
	pri Priority
	// dequeued ends the job's dispatch_queue trace span; the channel
	// calls it once at pickup.
	dequeued func()
	// done is send-only from the request's perspective: the channel
	// goroutine (or Close's drain) resolves it exactly once; only the
	// Execute call that made the channel receives.
	done chan<- deviceResult
}

type deviceResult struct {
	res  *compaction.Result
	lane int
	err  error
}

// Scheduler routes compaction jobs between the device channel pool and
// the CPU lane. Safe for concurrent Execute calls; Close joins every
// channel goroutine.
type Scheduler struct {
	// Immutable after New.
	devices    []compaction.Executor
	cpu        compaction.Executor
	injector   FaultInjector
	tun        Tuning
	pool       Pool
	arenaBytes int64      // summed channel arena capacity
	qcond      *sync.Cond // signals queue state changes; locks qmu
	stop       chan struct{}
	wg         sync.WaitGroup

	qmu     sync.Mutex
	queue   []*request // PriorityL0 jobs first, each priority FIFO
	qclosed bool

	mu     sync.Mutex
	closed bool
	st     Stats
}

// New builds a scheduler and starts one goroutine per device channel.
// The caller must Close it to join them.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Tuning.Validate(); err != nil {
		return nil, err
	}
	for i, d := range cfg.Devices {
		if d == nil {
			return nil, fmt.Errorf("dispatch: device channel %d is nil", i)
		}
	}
	cpu := cfg.CPU
	if cpu == nil {
		cpu = compaction.CPU{}
	}
	s := &Scheduler{
		devices:  cfg.Devices,
		cpu:      cpu,
		injector: cfg.Injector,
		tun:      cfg.Tuning.withDefaults(),
		pool:     Pool{Channels: len(cfg.Devices), ImageBudget: cfg.Tuning.DeviceImageBudget},
		stop:     make(chan struct{}),
	}
	s.qcond = sync.NewCond(&s.qmu)
	// The pool's admission limits are the weakest channel's (0 = none).
	for _, d := range s.devices {
		s.pool.MaxRuns = minPositive(s.pool.MaxRuns, d.MaxRuns())
		if az, ok := d.(ArenaSizer); ok {
			s.arenaBytes += az.ArenaBytes()
			s.pool.ArenaBudget = minPositive(s.pool.ArenaBudget, az.ArenaInputBudget())
		}
	}
	if len(s.devices) > 0 {
		s.st.LaneJobs = make([]int64, len(s.devices))
	}
	for i := range s.devices {
		s.wg.Add(1)
		go s.channelLoop(i)
	}
	return s, nil
}

// minPositive is the smaller of two limits where 0 means none.
func minPositive[T int | int64](limit, v T) T {
	if v > 0 && (limit == 0 || v < limit) {
		return v
	}
	return limit
}

// Close stops the channel goroutines and fails stranded requests. Safe to
// call twice. In-flight Execute calls return ErrClosed.
//
// New makes s.stop, but shutdown is Close's one job: closing the stop
// channel here is the designed hand-off, declared below so chanflow
// holds every other close site to the owner rule.
//
//fcae:chan-owner dispatch.Scheduler.stop
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	// Wake channel goroutines blocked in dequeue and enqueue waiters;
	// both exit on qclosed.
	s.qmu.Lock()
	s.qclosed = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.wg.Wait()
	// Fail whatever was still queued. The sends happen outside qmu (done
	// is buffered, but no channel op runs under a held mutex).
	s.qmu.Lock()
	stranded := s.queue
	s.queue = nil
	s.qmu.Unlock()
	for _, req := range stranded {
		req.done <- deviceResult{err: ErrClosed}
	}
	return nil
}

// enqueue queues req: a PriorityL0 request after the L0 requests already
// queued, any other at the tail. The queue holds at most two requests per
// channel. ok is false when the queue is full and block is unset
// (backpressure routing); err is ErrClosed after Close. Blocking waits are
// woken by dequeues and by Close.
func (s *Scheduler) enqueue(req *request, block bool) (ok bool, err error) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for {
		if s.qclosed {
			return false, ErrClosed
		}
		if len(s.queue) < 2*len(s.devices) {
			break
		}
		if !block {
			return false, nil
		}
		s.qcond.Wait()
	}
	at := len(s.queue)
	if req.pri == PriorityL0 {
		at = 0
		for at < len(s.queue) && s.queue[at].pri == PriorityL0 {
			at++
		}
	}
	s.queue = slices.Insert(s.queue, at, req)
	s.qcond.Broadcast()
	return true, nil
}

// dequeue blocks for the head request; it returns nil when the scheduler
// closes.
func (s *Scheduler) dequeue() *request {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for {
		if s.qclosed {
			return nil
		}
		if len(s.queue) > 0 {
			break
		}
		s.qcond.Wait()
	}
	req := s.queue[0]
	// slices.Delete clears the vacated tail slot, so the request does not
	// leak through the backing array.
	s.queue = slices.Delete(s.queue, 0, 1)
	// A slot freed: wake blocked enqueuers.
	s.qcond.Broadcast()
	return req
}

// Execute runs one compaction job through the routing policy and returns
// the merged result plus the route taken. Blocking: the calling worker
// owns the job until a lane resolves it. pri selects the queue position:
// a PriorityL0 job queues ahead of every PriorityDeep one.
func (s *Scheduler) Execute(job *compaction.Job, env compaction.Env, pri Priority) (*compaction.Result, Route, error) {
	var route Route
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, route, ErrClosed
	}
	if route.Reason = Admit(s.pool, job.NumRuns(), job.InputBytes()); route.Reason != obs.RouteNone {
		s.noteFallback(route.Reason)
		return s.runCPU(job, env, &route)
	}

	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if !s.sleep(time.Duration(attempt) * s.tun.RetryBackoff) {
				return nil, route, ErrClosed
			}
		}
		done := make(chan deviceResult, 1)
		req := &request{
			job:      job,
			env:      env,
			pri:      pri,
			dequeued: job.Trace.StartSpan("dispatch_queue"),
			done:     done,
		}
		// First admission never blocks: a saturated device pool means
		// the CPU lane is the faster path (backpressure routing).
		ok, err := s.enqueue(req, attempt > 0)
		if err != nil {
			return nil, route, err
		}
		if !ok {
			route.Reason = ReasonSaturated
			s.noteFallback(ReasonSaturated)
			return s.runCPU(job, env, &route)
		}
		route.DeviceAttempts++
		var r deviceResult
		select {
		case r = <-done:
		case <-s.stop:
			return nil, route, ErrClosed
		}
		switch {
		case r.err == nil:
			route.Lane = obs.DeviceLane(r.lane)
			route.Executor = s.devices[r.lane].Name()
			s.noteDeviceJob(r.lane)
			return r.res, route, nil
		case errors.Is(r.err, ErrClosed):
			return nil, route, r.err
		case errors.Is(r.err, compaction.ErrArenaExhausted):
			// The channel's staging arena could not hold the job — a
			// deterministic property of the job's shape, not flakiness:
			// rerunning on a device would fail the same way, so route to
			// the CPU lane without burning retries.
			route.Reason = ReasonArena
			s.noteFallback(ReasonArena)
			return s.runCPU(job, env, &route)
		case !errors.Is(r.err, ErrDeviceFault) && !errors.Is(r.err, ErrDeviceTimeout):
			// A genuine merge failure (corrupt input, disk full) is not
			// device flakiness; masking it behind a CPU retry would hide
			// data errors, so it surfaces to the caller as-is.
			route.Lane = obs.DeviceLane(r.lane)
			route.Executor = s.devices[r.lane].Name()
			return nil, route, r.err
		}
		route.Faults++
		s.noteFault(errors.Is(r.err, ErrDeviceTimeout))
		if attempt >= s.tun.MaxDeviceRetries {
			route.Reason = ReasonFault
			s.noteFallback(ReasonFault)
			return s.runCPU(job, env, &route)
		}
		s.noteRetry()
	}
}

// runCPU executes the job on the software lane.
func (s *Scheduler) runCPU(job *compaction.Job, env compaction.Env, route *Route) (*compaction.Result, Route, error) {
	route.Lane = obs.LaneCPU
	route.Executor = s.cpu.Name()
	done := job.Trace.StartSpan("cpu_merge")
	res, err := s.cpu.Compact(job, env)
	done()
	s.noteCPUJob()
	return res, *route, err
}

// channelLoop is one device channel: it drains the queue and
// runs attempts on its own executor instance.
func (s *Scheduler) channelLoop(lane int) {
	defer s.wg.Done()
	for {
		req := s.dequeue()
		if req == nil {
			return
		}
		req.dequeued()
		res, err := s.deviceAttempt(lane, req)
		req.done <- deviceResult{res: res, lane: lane, err: err}
	}
}

// deviceAttempt runs one attempt on lane, applying any injected fault.
// The deadline cuts short only injected stalls: a merge that actually
// started always runs to completion, so a timed-out attempt never leaves
// a concurrent writer behind.
func (s *Scheduler) deviceAttempt(lane int, req *request) (*compaction.Result, error) {
	var fault Fault
	if s.injector != nil {
		fault = s.injector.NextFault(lane, req.job)
	}
	switch fault.Kind {
	case FaultStall:
		stall := s.tun.DeviceDeadline
		if fault.Delay > 0 && fault.Delay < stall {
			stall = fault.Delay
		}
		if !s.sleep(stall) {
			return nil, ErrClosed
		}
		if fault.Delay == 0 || fault.Delay >= s.tun.DeviceDeadline {
			return nil, fmt.Errorf("%w: %s stalled %s", ErrDeviceTimeout, laneName(lane), s.tun.DeviceDeadline)
		}
	case FaultSlow:
		if !s.sleep(fault.Delay) {
			return nil, ErrClosed
		}
	case FaultError:
		return nil, fmt.Errorf("%w: %s rejected the job", ErrDeviceFault, laneName(lane))
	}
	env := req.env
	var fe *faultEnv
	if fault.Kind == FaultWrite {
		fe = newFaultEnv(req.env, fault.FailAfterBytes)
		env = fe
	}
	done := req.job.Trace.StartSpan("device_merge")
	res, err := s.devices[lane].Compact(req.job, env)
	done()
	if err != nil && fe != nil && fe.tripped() {
		// The executor failed because of the injected output error: tag
		// it so the scheduler retries/falls back instead of surfacing it.
		err = fmt.Errorf("%w: mid-merge write on %s: %w", ErrDeviceFault, laneName(lane), err)
	}
	return res, err
}

// sleep waits d or until Close; it reports whether the full wait elapsed.
func (s *Scheduler) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	}
}

func laneName(lane int) string { return obs.DeviceLane(lane).String() }

// Stats returns a snapshot of the routing counters. The two mutexes are
// taken in sequence, never nested.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	out := s.st
	out.LaneJobs = append([]int64(nil), s.st.LaneJobs...)
	s.mu.Unlock()
	s.qmu.Lock()
	out.QueueDepth = len(s.queue)
	s.qmu.Unlock()
	out.ArenaBytes = s.arenaBytes
	// High-water marks move while the scheduler runs; read them live,
	// outside both mutexes (the executors do their own locking).
	for i, d := range s.devices {
		if az, ok := d.(ArenaSizer); ok {
			if hw := az.ArenaHighWater(); hw > 0 {
				if out.ArenaHighWater == nil {
					out.ArenaHighWater = make([]int64, len(s.devices))
				}
				out.ArenaHighWater[i] = hw
			}
		}
	}
	return out
}

func (s *Scheduler) noteDeviceJob(lane int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.DeviceJobs++
	for len(s.st.LaneJobs) <= lane {
		s.st.LaneJobs = append(s.st.LaneJobs, 0)
	}
	s.st.LaneJobs[lane]++
}

func (s *Scheduler) noteCPUJob() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.CPUJobs++
}

func (s *Scheduler) noteFault(timeout bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Faults++
	if timeout {
		s.st.Timeouts++
	}
}

func (s *Scheduler) noteRetry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Retries++
}

func (s *Scheduler) noteFallback(reason RouteReason) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch reason {
	case ReasonFanIn:
		s.st.FallbackFanIn++
	case ReasonBudget:
		s.st.FallbackBudget++
	case ReasonArena:
		s.st.FallbackArena++
	case ReasonSaturated:
		s.st.FallbackSaturated++
	case ReasonFault:
		s.st.FallbackFault++
	}
}

// PublishMetrics implements obs.MetricsPublisher: routing counters appear
// as callback gauges (dispatch_device_jobs, dispatch_cpu_jobs,
// dispatch_lane<i>_jobs, dispatch_faults, dispatch_timeouts,
// dispatch_retries, dispatch_fallback_{fanin,budget,arena,saturated,fault},
// dispatch_queue_depth, dispatch_arena_bytes,
// dispatch_arena_high_water_bytes — the most-pressured channel's peak
// arena occupancy, i.e. how close the pool has come to heap spill — and,
// per arena-sized device channel, dispatch_arena_high_water_bytes_chan<i>
// so uneven per-channel pressure is visible, not just the max).
func (s *Scheduler) PublishMetrics(r *obs.Registry) {
	stat := func(pick func(Stats) float64) func() float64 {
		return func() float64 { return pick(s.Stats()) }
	}
	r.GaugeFunc("dispatch_device_jobs", stat(func(st Stats) float64 { return float64(st.DeviceJobs) }))
	r.GaugeFunc("dispatch_cpu_jobs", stat(func(st Stats) float64 { return float64(st.CPUJobs) }))
	r.GaugeFunc("dispatch_faults", stat(func(st Stats) float64 { return float64(st.Faults) }))
	r.GaugeFunc("dispatch_timeouts", stat(func(st Stats) float64 { return float64(st.Timeouts) }))
	r.GaugeFunc("dispatch_retries", stat(func(st Stats) float64 { return float64(st.Retries) }))
	r.GaugeFunc("dispatch_fallback_fanin", stat(func(st Stats) float64 { return float64(st.FallbackFanIn) }))
	r.GaugeFunc("dispatch_fallback_budget", stat(func(st Stats) float64 { return float64(st.FallbackBudget) }))
	r.GaugeFunc("dispatch_fallback_arena", stat(func(st Stats) float64 { return float64(st.FallbackArena) }))
	r.GaugeFunc("dispatch_fallback_saturated", stat(func(st Stats) float64 { return float64(st.FallbackSaturated) }))
	r.GaugeFunc("dispatch_fallback_fault", stat(func(st Stats) float64 { return float64(st.FallbackFault) }))
	r.GaugeFunc("dispatch_queue_depth", stat(func(st Stats) float64 { return float64(st.QueueDepth) }))
	r.GaugeFunc("dispatch_arena_bytes", stat(func(st Stats) float64 { return float64(st.ArenaBytes) }))
	r.GaugeFunc("dispatch_arena_high_water_bytes", stat(func(st Stats) float64 {
		var peak int64
		for _, hw := range st.ArenaHighWater {
			if hw > peak {
				peak = hw
			}
		}
		return float64(peak)
	}))
	for i := range s.devices {
		lane := i
		r.GaugeFunc(fmt.Sprintf("dispatch_lane%d_jobs", lane), func() float64 {
			st := s.Stats()
			if lane < len(st.LaneJobs) {
				return float64(st.LaneJobs[lane])
			}
			return 0
		})
		if _, ok := s.devices[i].(ArenaSizer); !ok {
			continue
		}
		r.GaugeFunc(fmt.Sprintf("dispatch_arena_high_water_bytes_chan%d", lane), func() float64 {
			st := s.Stats()
			if lane < len(st.ArenaHighWater) {
				return float64(st.ArenaHighWater[lane])
			}
			return 0
		})
	}
}
