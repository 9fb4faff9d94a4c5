package dispatch

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"time"

	"fcae/internal/compaction"
)

// Fault injection. A simulated device can only fail if something makes it
// fail: the injector is consulted once per device attempt and decides
// whether the attempt proceeds cleanly, errors out before the merge,
// suffers an I/O error mid-merge (through a wrapped Env, so the executor
// fails through its own error path with half-written outputs on disk),
// stalls past the attempt deadline, or merely runs slow. Injected faults
// carry the ErrDeviceFault / ErrDeviceTimeout sentinels, which is what the
// scheduler's retry/fallback logic keys on — a genuine merge error (bad
// input bytes, disk full) deliberately does NOT match them and is returned
// to the caller unmasked.

// Sentinel errors produced by the fault layer and the scheduler.
var (
	// ErrDeviceFault marks an injected device error; the scheduler retries
	// and ultimately falls back to the CPU lane.
	ErrDeviceFault = errors.New("dispatch: injected device fault")
	// ErrDeviceTimeout marks a device attempt that exceeded its deadline
	// while stalled; handled like a fault.
	ErrDeviceTimeout = errors.New("dispatch: device attempt deadline exceeded")
	// ErrClosed is returned by Execute after Close.
	ErrClosed = errors.New("dispatch: scheduler closed")
)

// FaultKind classifies one injected fault.
type FaultKind int

const (
	// FaultNone lets the attempt run cleanly.
	FaultNone FaultKind = iota
	// FaultError fails the attempt before the merge starts (the card
	// rejects the job: DMA error, ECC fault).
	FaultError
	// FaultWrite injects a write error partway through the merge's output,
	// so the executor fails mid-compaction with real half-written tables
	// on disk — the integrity-critical case.
	FaultWrite
	// FaultStall wedges the attempt until the scheduler's deadline fires
	// (a hung channel); surfaces as ErrDeviceTimeout.
	FaultStall
	// FaultSlow delays the attempt by Delay, then runs it normally. Useful
	// for provoking queue backpressure and overlapping compactions.
	FaultSlow
)

// String names the kind for diagnostics.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultWrite:
		return "write-error"
	case FaultStall:
		return "stall"
	case FaultSlow:
		return "slow"
	}
	return "unknown"
}

// Fault is one injected behavior for a single device attempt.
type Fault struct {
	Kind FaultKind
	// Delay applies to FaultSlow (extra latency before the merge). For
	// FaultStall a zero Delay stalls for the full attempt deadline.
	Delay time.Duration
	// FailAfterBytes bounds how many output bytes a FaultWrite attempt
	// writes before the injected error; 0 fails on the first write.
	FailAfterBytes int64
}

// FaultInjector decides the fate of each device attempt. Implementations
// must be safe for concurrent use: every Execute call consults the
// injector from its own goroutine.
type FaultInjector interface {
	// NextFault is called once per device attempt, before the merge.
	NextFault(lane int, job *compaction.Job) Fault
}

// ProbInjector injects faults at a fixed probability with a deterministic
// seeded stream, splitting faults evenly between pre-merge errors,
// mid-merge write errors and stalls. An optional SlowRate adds benign
// latency to otherwise-clean attempts.
type ProbInjector struct {
	mu sync.Mutex
	// rng and the rates are set at construction and then only read under
	// mu together with the rng draw, keeping the stream deterministic
	// under concurrent channels (ordering aside).
	rng       *rand.Rand
	rate      float64
	slowRate  float64
	slowDelay time.Duration
}

// NewProbInjector returns an injector that faults each device attempt
// with probability rate (0..1), deterministically from seed.
func NewProbInjector(seed int64, rate float64) *ProbInjector {
	return &ProbInjector{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

// WithSlow adds benign latency: non-faulted attempts are delayed by delay
// with probability slowRate. Returns the receiver for chaining.
func (p *ProbInjector) WithSlow(slowRate float64, delay time.Duration) *ProbInjector {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slowRate, p.slowDelay = slowRate, delay
	return p
}

// NextFault implements FaultInjector.
func (p *ProbInjector) NextFault(lane int, job *compaction.Job) Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng.Float64() < p.rate {
		switch p.rng.Intn(3) {
		case 0:
			return Fault{Kind: FaultError}
		case 1:
			// Fail somewhere inside the first output table's worth of
			// bytes so the executor dies mid-merge, not at the very start.
			return Fault{Kind: FaultWrite, FailAfterBytes: p.rng.Int63n(1 << 16)}
		default:
			return Fault{Kind: FaultStall}
		}
	}
	if p.slowRate > 0 && p.rng.Float64() < p.slowRate {
		return Fault{Kind: FaultSlow, Delay: p.slowDelay}
	}
	return Fault{}
}

// ScriptInjector replays a fixed fault sequence, one entry per device
// attempt across all lanes, then returns FaultNone forever. Deterministic
// by construction, it is the routing-test workhorse.
type ScriptInjector struct {
	mu     sync.Mutex
	script []Fault
	next   int
}

// NewScriptInjector returns an injector replaying script in order.
func NewScriptInjector(script ...Fault) *ScriptInjector {
	return &ScriptInjector{script: script}
}

// NextFault implements FaultInjector.
func (s *ScriptInjector) NextFault(lane int, job *compaction.Job) Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.script) {
		return Fault{}
	}
	f := s.script[s.next]
	s.next++
	return f
}

// faultEnv wraps a job's Env so that output writes start failing after a
// byte budget, simulating a device that dies mid-compaction. It is used
// by one attempt on one goroutine, so the byte counter needs no lock. Outputs created before the trip point stay on disk exactly as a
// real torn device write would leave them; the store's pending-output
// sweep reclaims them once the job resolves elsewhere.
type faultEnv struct {
	env       compaction.Env
	remaining int64
	hit       bool
}

func newFaultEnv(env compaction.Env, failAfter int64) *faultEnv {
	return &faultEnv{env: env, remaining: failAfter}
}

// tripped reports whether the injected write error fired.
func (f *faultEnv) tripped() bool { return f.hit }

// NewOutput implements compaction.Env.
func (f *faultEnv) NewOutput() (uint64, io.WriteCloser, error) {
	num, w, err := f.env.NewOutput()
	if err != nil {
		return num, w, err
	}
	return num, &faultWriter{env: f, w: w}, nil
}

// faultWriter charges writes against the shared budget.
type faultWriter struct {
	env *faultEnv
	w   io.WriteCloser
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if fw.env.hit || int64(len(p)) > fw.env.remaining {
		fw.env.hit = true
		return 0, ErrDeviceFault
	}
	fw.env.remaining -= int64(len(p))
	return fw.w.Write(p)
}

func (fw *faultWriter) Close() error { return fw.w.Close() }
