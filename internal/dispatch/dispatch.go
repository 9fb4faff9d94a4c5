// Package dispatch is the host-side compaction-offload scheduler (the
// paper's Fig. 6 routing box grown into a subsystem, following LUDA's
// observation that offload wins hinge on keeping the device busy, not on
// the kernel alone). It owns a pool of device channels — each wrapping
// one compaction executor instance, the analogue of one FCAE compaction
// unit — plus a software (CPU) lane, and routes every job through an
// admission policy, the first three rules of which are the pure function
// Admit that the simulator calls too:
//
//   - fan-in: jobs whose run count exceeds the device's N go to the CPU
//     lane (the paper's "#SSTable in L0 > N-1 → SW compaction" rule);
//   - image budget: jobs whose input bytes exceed the device image budget
//     go to the CPU lane (the images would not fit card DRAM);
//   - arena: jobs whose input bytes exceed the per-channel staging arena
//     go to the CPU lane (the images would not fit the channel's
//     persistent device-memory allocation);
//   - backpressure: when two calls per channel already wait for a lane
//     the job runs on the CPU lane immediately instead of stalling the
//     compaction worker;
//   - fault fallback: a device attempt that faults or times out is
//     retried with backoff, then degraded to the CPU lane — a flaky card
//     slows compaction down, it never wedges the store.
//
// The host protocol is synchronous, as in the paper (§IV): the worker
// that calls Execute takes an idle channel, runs the attempt on its own
// goroutine and gives the channel back. Calls that find no channel idle
// wait in one FIFO list, except that an obs.PriorityL0 call (an L0→L1
// compaction, which gates foreground writes) waits after the L0 calls
// already waiting and ahead of every obs.PriorityDeep one. A job on a
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
// take a device channel: it returns obs.RouteNone when it may, else
// the reason it runs on the CPU lane. It is the one statement of the
// paper's §VI-A software-fallback rule, called by Scheduler.Execute and by
// the simulator (package lsmsim). The saturated and mid-build arena routes
// depend on wait-list and runtime state, so Execute takes them itself.
func Admit(p Pool, runs int, inputBytes int64) obs.RouteReason {
	switch {
	case p.Channels == 0:
		return obs.RouteNoDevice
	case p.MaxRuns > 0 && runs > p.MaxRuns:
		return obs.RouteFanIn
	case p.ImageBudget > 0 && inputBytes > p.ImageBudget:
		return obs.RouteImageBudget
	case p.ArenaBudget > 0 && inputBytes > p.ArenaBudget:
		return obs.RouteArena
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
	// Tuning bounds device attempts and retries; zero value = defaults.
	Tuning Tuning
}

// Route describes where one job ran and why.
type Route struct {
	// Lane is the device channel or obs.LaneCPU.
	Lane obs.Lane
	// Executor is the Name() of the executor that produced the result.
	Executor string
	// Reason explains a CPU routing (RouteNone when the job ran on a
	// device, or when the scheduler has devices and chose one by
	// default).
	Reason obs.RouteReason
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
	return r.Lane == obs.LaneCPU && r.Reason != obs.RouteNone && r.Reason != obs.RouteNoDevice
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
	// QueueDepth is the number of calls waiting for a device lane.
	QueueDepth int `json:"queue_depth"`
	// ArenaBytes is the summed staging-arena capacity across channels.
	ArenaBytes int64 `json:"arena_bytes"`
	// ArenaHighWater is each channel's peak staging-arena occupancy
	// (indexed like LaneJobs; 0 for channels without an arena). Peaks
	// near the per-channel capacity mean jobs are about to spill to
	// heap fallback; peaks far below it mean the carve is oversized.
	ArenaHighWater []int64 `json:"arena_high_water,omitempty"`
}

// Scheduler routes compaction jobs between the device channel pool and
// the CPU lane. Safe for concurrent Execute calls: each call takes a
// device lane itself, runs its attempt on its own goroutine and gives the
// lane back, so the scheduler starts no goroutine.
type Scheduler struct {
	// Immutable after New.
	devices    []compaction.Executor
	cpu        compaction.Executor
	injector   FaultInjector
	tun        Tuning
	pool       Pool
	arenaBytes int64 // summed channel arena capacity
	stop       chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond // signals lane releases, returning calls and Close; locks mu
	idle    []int      // free device lanes; non-empty only while nobody waits
	waiting []*waiter  // calls waiting for a lane: obs.PriorityL0 first, each priority FIFO
	calls   int        // Execute calls in flight; Close waits for zero
	closed  bool
	st      Stats
}

// waiter is one Execute call waiting for a device lane.
type waiter struct {
	pri  obs.Priority
	lane int // -1 until release hands the call a lane
}

// New builds a scheduler with every device lane idle. The caller must
// Close it.
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
	s.cond = sync.NewCond(&s.mu)
	// The pool's admission limits are the weakest channel's (0 = none).
	for i, d := range s.devices {
		s.idle = append(s.idle, i)
		s.pool.MaxRuns = minPositive(s.pool.MaxRuns, d.MaxRuns())
		if az, ok := d.(ArenaSizer); ok {
			s.arenaBytes += az.ArenaBytes()
			s.pool.ArenaBudget = minPositive(s.pool.ArenaBudget, az.ArenaInputBudget())
		}
	}
	if len(s.devices) > 0 {
		s.st.LaneJobs = make([]int64, len(s.devices))
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

// Close fails the calls waiting for a lane with ErrClosed, cuts injected
// stalls and retry backoffs short, and returns once every Execute call in
// flight has returned, so no merge on either lane is still writing
// outputs. Safe to call twice.
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
	s.waiting = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.stop)
	s.mu.Lock()
	for s.calls > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	return nil
}

// acquire takes a device lane for one attempt, waiting for one if none is
// idle: an obs.PriorityL0 call after the L0 calls already waiting, any other
// at the tail. At most two calls per channel wait. ok is false when that
// many already wait and block is unset (backpressure routing); err is
// ErrClosed after Close.
func (s *Scheduler) acquire(pri obs.Priority, block bool) (lane int, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return 0, false, ErrClosed
		}
		if n := len(s.idle); n > 0 {
			lane, s.idle = s.idle[n-1], s.idle[:n-1]
			return lane, true, nil
		}
		if len(s.waiting) < 2*len(s.devices) {
			break
		}
		if !block {
			return 0, false, nil
		}
		s.cond.Wait()
	}
	w := &waiter{pri: pri, lane: -1}
	at := len(s.waiting)
	if pri == obs.PriorityL0 {
		at = 0
		for at < len(s.waiting) && s.waiting[at].pri == obs.PriorityL0 {
			at++
		}
	}
	s.waiting = slices.Insert(s.waiting, at, w)
	for w.lane < 0 && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		// Close emptied the list; a lane handed over before it goes back.
		if w.lane >= 0 {
			s.idle = append(s.idle, w.lane)
			s.cond.Broadcast()
		}
		return 0, false, ErrClosed
	}
	return w.lane, true, nil
}

// release gives lane to the first waiting call, or back to the idle list.
func (s *Scheduler) release(lane int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiting) > 0 {
		s.waiting[0].lane = lane
		// slices.Delete clears the vacated tail slot, so the waiter does
		// not leak through the backing array.
		s.waiting = slices.Delete(s.waiting, 0, 1)
	} else {
		s.idle = append(s.idle, lane)
	}
	s.cond.Broadcast()
}

// Execute runs one compaction job through the routing policy and returns
// the merged result plus the route taken. Blocking: the calling worker
// owns the job until a lane resolves it, and runs its device attempts
// itself. pri selects the wait-list position: an obs.PriorityL0 job waits
// ahead of every obs.PriorityDeep one.
func (s *Scheduler) Execute(job *compaction.Job, env compaction.Env, pri obs.Priority) (*compaction.Result, Route, error) {
	var route Route
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, route, ErrClosed
	}
	s.calls++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.calls--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
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
		queued := job.Trace.StartSpan("dispatch_queue")
		// A first attempt never waits for room: a saturated device pool
		// means the CPU lane is the faster path (backpressure routing).
		lane, ok, err := s.acquire(pri, attempt > 0)
		if err != nil {
			return nil, route, err
		}
		if !ok {
			route.Reason = obs.RouteSaturated
			s.noteFallback(obs.RouteSaturated)
			return s.runCPU(job, env, &route)
		}
		queued()
		route.DeviceAttempts++
		res, err := s.deviceAttempt(lane, job, env)
		s.release(lane)
		switch {
		case err == nil:
			route.Lane = obs.DeviceLane(lane)
			route.Executor = s.devices[lane].Name()
			s.noteDeviceJob(lane)
			return res, route, nil
		case errors.Is(err, ErrClosed):
			return nil, route, err
		case errors.Is(err, compaction.ErrArenaExhausted):
			// The channel's staging arena could not hold the job — a
			// deterministic property of the job's shape, not flakiness:
			// rerunning on a device would fail the same way, so route to
			// the CPU lane without burning retries.
			route.Reason = obs.RouteArena
			s.noteFallback(obs.RouteArena)
			return s.runCPU(job, env, &route)
		case !errors.Is(err, ErrDeviceFault) && !errors.Is(err, ErrDeviceTimeout):
			// A genuine merge failure (corrupt input, disk full) is not
			// device flakiness; masking it behind a CPU retry would hide
			// data errors, so it surfaces to the caller as-is.
			route.Lane = obs.DeviceLane(lane)
			route.Executor = s.devices[lane].Name()
			return nil, route, err
		}
		route.Faults++
		s.noteFault(errors.Is(err, ErrDeviceTimeout))
		if attempt >= s.tun.MaxDeviceRetries {
			route.Reason = obs.RouteDeviceFault
			s.noteFallback(obs.RouteDeviceFault)
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

// deviceAttempt runs one attempt on lane, applying any injected fault.
// The deadline cuts short only injected stalls: a merge that actually
// started always runs to completion, so a timed-out attempt never leaves
// a concurrent writer behind.
func (s *Scheduler) deviceAttempt(lane int, job *compaction.Job, env compaction.Env) (*compaction.Result, error) {
	var fault Fault
	if s.injector != nil {
		fault = s.injector.NextFault(lane, job)
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
	var fe *faultEnv
	if fault.Kind == FaultWrite {
		fe = newFaultEnv(env, fault.FailAfterBytes)
		env = fe
	}
	done := job.Trace.StartSpan("device_merge")
	res, err := s.devices[lane].Compact(job, env)
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

// Stats returns a snapshot of the routing counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	out := s.st
	out.LaneJobs = append([]int64(nil), s.st.LaneJobs...)
	out.QueueDepth = len(s.waiting)
	s.mu.Unlock()
	out.ArenaBytes = s.arenaBytes
	// High-water marks move while the scheduler runs; read them live,
	// outside the mutex (the executors do their own locking).
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

func (s *Scheduler) noteFallback(reason obs.RouteReason) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch reason {
	case obs.RouteFanIn:
		s.st.FallbackFanIn++
	case obs.RouteImageBudget:
		s.st.FallbackBudget++
	case obs.RouteArena:
		s.st.FallbackArena++
	case obs.RouteSaturated:
		s.st.FallbackSaturated++
	case obs.RouteDeviceFault:
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
