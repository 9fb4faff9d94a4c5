package dispatch

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcae/internal/compaction"
	"fcae/internal/obs"
)

// fakeExec is a scriptable device/CPU executor.
type fakeExec struct {
	name    string
	maxRuns int
	delay   time.Duration
	err     error
	// writeOut, when >0, makes Compact push that many bytes through the
	// Env so faultEnv write errors can trip.
	writeOut int
	calls    atomic.Int64
}

func (f *fakeExec) Name() string { return f.name }
func (f *fakeExec) MaxRuns() int { return f.maxRuns }

func (f *fakeExec) Compact(job *compaction.Job, env compaction.Env) (*compaction.Result, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.writeOut > 0 {
		num, w, err := env.NewOutput()
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(make([]byte, f.writeOut)); err != nil {
			_ = w.Close() // best-effort cleanup on the injected error path
			return nil, fmt.Errorf("fake merge: %w", err)
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return &compaction.Result{Outputs: []compaction.OutputTable{{Num: num, Size: int64(f.writeOut)}}}, nil
	}
	if f.err != nil {
		return nil, f.err
	}
	return &compaction.Result{}, nil
}

// nullEnv discards output bytes.
type nullEnv struct{ next atomic.Uint64 }

func (e *nullEnv) NewOutput() (uint64, io.WriteCloser, error) {
	return e.next.Add(1), nopWriteCloser{}, nil
}

type nopWriteCloser struct{}

func (nopWriteCloser) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriteCloser) Close() error                { return nil }

func testJob(runs int) *compaction.Job {
	job := &compaction.Job{}
	for i := 0; i < runs; i++ {
		job.Runs = append(job.Runs, []compaction.Table{{Num: uint64(i + 1), Size: 1 << 10}})
	}
	return job
}

func newTestSched(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// TestRoutingTable exercises the admission policy cases.
func TestRoutingTable(t *testing.T) {
	t.Run("no-device", func(t *testing.T) {
		cpu := &fakeExec{name: "cpu"}
		s := newTestSched(t, Config{CPU: cpu})
		_, route, err := s.Execute(testJob(2), &nullEnv{}, obs.PriorityDeep)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if route.Lane != obs.LaneCPU || route.Reason != obs.RouteNoDevice || route.Fallback() {
			t.Fatalf("route = %+v, want cpu lane, reason %q, not a fallback", route, obs.RouteNoDevice)
		}
		if cpu.calls.Load() != 1 {
			t.Fatalf("cpu calls = %d, want 1", cpu.calls.Load())
		}
	})

	t.Run("device-default", func(t *testing.T) {
		dev := &fakeExec{name: "fcae", maxRuns: 4}
		cpu := &fakeExec{name: "cpu"}
		s := newTestSched(t, Config{Devices: []compaction.Executor{dev}, CPU: cpu})
		_, route, err := s.Execute(testJob(2), &nullEnv{}, obs.PriorityDeep)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !route.OnDevice() || route.Lane != obs.DeviceLane(0) || route.Executor != "fcae" || route.Reason != obs.RouteNone {
			t.Fatalf("route = %+v, want device-0/fcae", route)
		}
		if dev.calls.Load() != 1 || cpu.calls.Load() != 0 {
			t.Fatalf("calls dev=%d cpu=%d, want 1/0", dev.calls.Load(), cpu.calls.Load())
		}
	})

	t.Run("fanin-overflow", func(t *testing.T) {
		dev := &fakeExec{name: "fcae", maxRuns: 4}
		cpu := &fakeExec{name: "cpu"}
		s := newTestSched(t, Config{Devices: []compaction.Executor{dev}, CPU: cpu})
		_, route, err := s.Execute(testJob(5), &nullEnv{}, obs.PriorityDeep)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !route.Fallback() || route.Reason != obs.RouteFanIn {
			t.Fatalf("route = %+v, want CPU fallback with reason %q", route, obs.RouteFanIn)
		}
		if dev.calls.Load() != 0 {
			t.Fatalf("device ran a job it must reject (fan-in %d > %d)", 5, 4)
		}
		if got := s.Stats().FallbackFanIn; got != 1 {
			t.Fatalf("FallbackFanIn = %d, want 1", got)
		}
	})

	t.Run("image-budget", func(t *testing.T) {
		dev := &fakeExec{name: "fcae", maxRuns: 8}
		s := newTestSched(t, Config{
			Devices: []compaction.Executor{dev},
			CPU:     &fakeExec{name: "cpu"},
			Tuning:  Tuning{DeviceImageBudget: 1 << 10}, // one 1KiB table already at the cap
		})
		_, route, err := s.Execute(testJob(2), &nullEnv{}, obs.PriorityDeep) // 2KiB input > 1KiB budget
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !route.Fallback() || route.Reason != obs.RouteImageBudget {
			t.Fatalf("route = %+v, want CPU fallback with reason %q", route, obs.RouteImageBudget)
		}
		if got := s.Stats().FallbackBudget; got != 1 {
			t.Fatalf("FallbackBudget = %d, want 1", got)
		}
	})

	t.Run("saturated", func(t *testing.T) {
		// One slow device channel, so the queue holds two jobs: the first
		// job occupies the channel, the next two fill the queue, the
		// fourth must route to CPU instead of blocking.
		dev := &fakeExec{name: "fcae", delay: 200 * time.Millisecond}
		cpu := &fakeExec{name: "cpu"}
		s := newTestSched(t, Config{Devices: []compaction.Executor{dev}, CPU: cpu})
		// Park the jobs one at a time: launching the background jobs at
		// once would race them for the queue and one could itself take the
		// saturation path.
		var wg sync.WaitGroup
		park := func(what string, parked func() bool) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, _ = s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
			}()
			waitFor(t, what, parked)
		}
		park("the first job on the channel", func() bool { return dev.calls.Load() == 1 })
		park("a second job in the queue", func() bool { return s.Stats().QueueDepth == 1 })
		park("a third job in the queue", func() bool { return s.Stats().QueueDepth == 2 })
		_, route, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !route.Fallback() || route.Reason != obs.RouteSaturated {
			t.Fatalf("route = %+v, want CPU fallback with reason %q", route, obs.RouteSaturated)
		}
		wg.Wait()
		if got := s.Stats().FallbackSaturated; got != 1 {
			t.Fatalf("FallbackSaturated = %d, want 1", got)
		}
	})
}

// TestAdmit pins the admission rule's order and its boundaries: the first
// failing check names the reason, a budget admits input equal to it, and a
// zero limit is no limit.
func TestAdmit(t *testing.T) {
	full := Pool{Channels: 1, MaxRuns: 4, ImageBudget: 1000, ArenaBudget: 500}
	for _, tc := range []struct {
		name  string
		pool  Pool
		runs  int
		bytes int64
		want  obs.RouteReason
	}{
		{"admitted", full, 4, 500, obs.RouteNone},
		{"no device", Pool{}, 1, 1, obs.RouteNoDevice},
		{"no device before fan-in", Pool{MaxRuns: 2}, 9, 1 << 40, obs.RouteNoDevice},
		{"fan-in", full, 5, 1, obs.RouteFanIn},
		{"fan-in before budgets", full, 5, 1 << 40, obs.RouteFanIn},
		{"image budget", full, 1, 1001, obs.RouteImageBudget},
		{"image budget before arena", Pool{Channels: 1, ImageBudget: 1000, ArenaBudget: 2000}, 1, 1001, obs.RouteImageBudget},
		{"arena at its budget", full, 1, 500, obs.RouteNone},
		{"arena one byte over", full, 1, 501, obs.RouteArena},
		{"image at its budget", Pool{Channels: 1, ImageBudget: 1000}, 1, 1000, obs.RouteNone},
		{"zero limits are unlimited", Pool{Channels: 2}, 1 << 20, 1 << 40, obs.RouteNone},
	} {
		if got := Admit(tc.pool, tc.runs, tc.bytes); got != tc.want {
			t.Errorf("%s: Admit(%+v, %d, %d) = %q, want %q", tc.name, tc.pool, tc.runs, tc.bytes, got, tc.want)
		}
	}
}

// TestFaultRetryThenSuccess proves a single injected fault is retried on
// the device and succeeds without CPU involvement.
func TestFaultRetryThenSuccess(t *testing.T) {
	dev := &fakeExec{name: "fcae"}
	cpu := &fakeExec{name: "cpu"}
	s := newTestSched(t, Config{
		Devices:  []compaction.Executor{dev},
		CPU:      cpu,
		Injector: NewScriptInjector(Fault{Kind: FaultError}),
		Tuning:   Tuning{RetryBackoff: time.Millisecond},
	})
	_, route, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !route.OnDevice() || route.DeviceAttempts != 2 || route.Faults != 1 {
		t.Fatalf("route = %+v, want device success after 2 attempts / 1 fault", route)
	}
	if cpu.calls.Load() != 0 {
		t.Fatalf("cpu ran despite successful retry")
	}
	st := s.Stats()
	if st.Faults != 1 || st.Retries != 1 || st.FallbackFault != 0 {
		t.Fatalf("stats = %+v, want 1 fault, 1 retry, 0 fault-fallbacks", st)
	}
}

// TestFaultExhaustionFallsBack proves persistent device faults degrade to
// the CPU lane rather than failing the job.
func TestFaultExhaustionFallsBack(t *testing.T) {
	dev := &fakeExec{name: "fcae"}
	cpu := &fakeExec{name: "cpu"}
	s := newTestSched(t, Config{
		Devices:  []compaction.Executor{dev},
		CPU:      cpu,
		Injector: NewScriptInjector(Fault{Kind: FaultError}, Fault{Kind: FaultError}),
		Tuning:   Tuning{RetryBackoff: time.Millisecond},
	})
	_, route, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !route.Fallback() || route.Reason != obs.RouteDeviceFault || route.Faults != 2 {
		t.Fatalf("route = %+v, want CPU fallback with reason %q after 2 faults", route, obs.RouteDeviceFault)
	}
	if cpu.calls.Load() != 1 {
		t.Fatalf("cpu calls = %d, want 1", cpu.calls.Load())
	}
	if got := s.Stats().FallbackFault; got != 1 {
		t.Fatalf("FallbackFault = %d, want 1", got)
	}
}

// TestWriteFaultMidMerge proves an injected mid-merge write error is
// tagged as a device fault (retried) rather than surfaced.
func TestWriteFaultMidMerge(t *testing.T) {
	dev := &fakeExec{name: "fcae", writeOut: 4096}
	s := newTestSched(t, Config{
		Devices:  []compaction.Executor{dev},
		CPU:      &fakeExec{name: "cpu"},
		Injector: NewScriptInjector(Fault{Kind: FaultWrite, FailAfterBytes: 100}),
		Tuning:   Tuning{RetryBackoff: time.Millisecond},
	})
	res, route, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !route.OnDevice() || route.Faults != 1 {
		t.Fatalf("route = %+v, want device success after mid-merge write fault", route)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %d, want 1 from the clean retry", len(res.Outputs))
	}
}

// TestStallTimesOut proves a stalled channel is cut at the deadline and
// the job completes elsewhere.
func TestStallTimesOut(t *testing.T) {
	dev := &fakeExec{name: "fcae"}
	s := newTestSched(t, Config{
		Devices:  []compaction.Executor{dev},
		CPU:      &fakeExec{name: "cpu"},
		Injector: NewScriptInjector(Fault{Kind: FaultStall}, Fault{Kind: FaultStall}),
		Tuning:   Tuning{DeviceDeadline: 20 * time.Millisecond, RetryBackoff: time.Millisecond},
	})
	start := time.Now()
	_, route, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !route.Fallback() || route.Reason != obs.RouteDeviceFault {
		t.Fatalf("route = %+v, want CPU fallback after stalls", route)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled %v, deadline did not fire", elapsed)
	}
	st := s.Stats()
	if st.Timeouts != 2 {
		t.Fatalf("Timeouts = %d, want 2", st.Timeouts)
	}
}

// TestGenuineErrorNotMasked proves a non-injected merge failure surfaces
// to the caller instead of being retried or hidden behind the CPU lane.
func TestGenuineErrorNotMasked(t *testing.T) {
	realErr := errors.New("sstable: corrupt block")
	dev := &fakeExec{name: "fcae", err: realErr}
	cpu := &fakeExec{name: "cpu"}
	s := newTestSched(t, Config{Devices: []compaction.Executor{dev}, CPU: cpu})
	_, _, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
	if !errors.Is(err, realErr) {
		t.Fatalf("err = %v, want the genuine merge error", err)
	}
	if cpu.calls.Load() != 0 || dev.calls.Load() != 1 {
		t.Fatalf("calls dev=%d cpu=%d, want exactly one device attempt", dev.calls.Load(), cpu.calls.Load())
	}
}

// TestExecuteAfterClose returns ErrClosed.
func TestExecuteAfterClose(t *testing.T) {
	s, err := New(Config{Devices: []compaction.Executor{&fakeExec{name: "fcae"}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep); !errors.Is(err, ErrClosed) {
		t.Fatalf("Execute after Close = %v, want ErrClosed", err)
	}
}

// TestChannelsRunConcurrently proves two device channels overlap work.
func TestChannelsRunConcurrently(t *testing.T) {
	var active, peak atomic.Int64
	track := func() func() {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return func() { active.Add(-1) }
	}
	mk := func(i int) compaction.Executor {
		return &trackingExec{fakeExec: fakeExec{name: fmt.Sprintf("fcae%d", i), delay: 100 * time.Millisecond}, track: track}
	}
	s := newTestSched(t, Config{Devices: []compaction.Executor{mk(0), mk(1)}})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep); err != nil {
				t.Errorf("Execute: %v", err)
			}
		}()
	}
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent device merges = %d, want >= 2", peak.Load())
	}
	st := s.Stats()
	if st.DeviceJobs != 4 || len(st.LaneJobs) != 2 || st.LaneJobs[0] == 0 || st.LaneJobs[1] == 0 {
		t.Fatalf("stats = %+v, want 4 device jobs spread across both lanes", st)
	}
}

type trackingExec struct {
	fakeExec
	track func() func()
}

func (e *trackingExec) Compact(job *compaction.Job, env compaction.Env) (*compaction.Result, error) {
	done := e.track()
	defer done()
	return e.fakeExec.Compact(job, env)
}

// gateExec records Compact order and blocks every merge until the gate
// lets it through (one send per merge, or a close for all), so tests can
// park calls in the wait list deterministically.
type gateExec struct {
	fakeExec
	gate chan struct{}

	mu    sync.Mutex
	order []uint64 // first input table number of each Compact, in call order
}

func (e *gateExec) Compact(job *compaction.Job, env compaction.Env) (*compaction.Result, error) {
	e.mu.Lock()
	e.order = append(e.order, job.Runs[0][0].Num)
	e.mu.Unlock()
	<-e.gate
	return e.fakeExec.Compact(job, env)
}

func (e *gateExec) callOrder() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]uint64(nil), e.order...)
}

// testJobNum is testJob(1) with a chosen table number, so gateExec can
// tell queued jobs apart.
func testJobNum(num uint64) *compaction.Job {
	return &compaction.Job{Runs: [][]compaction.Table{{{Num: num, Size: 1 << 10}}}}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPriorityOrdering proves a queued L0 job is dispatched before a deep
// job that was enqueued earlier: job 1 occupies the single channel, job 2
// (deep) parks in the queue, job 3 (L0) arrives later but runs first.
func TestPriorityOrdering(t *testing.T) {
	dev := &gateExec{fakeExec: fakeExec{name: "fcae", maxRuns: 4}, gate: make(chan struct{})}
	s := newTestSched(t, Config{Devices: []compaction.Executor{dev}, CPU: &fakeExec{name: "cpu"}})
	var wg sync.WaitGroup
	run := func(num uint64, pri obs.Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Execute(testJobNum(num), &nullEnv{}, pri); err != nil {
				t.Errorf("Execute(%d): %v", num, err)
			}
		}()
	}
	run(1, obs.PriorityDeep)
	waitFor(t, "job 1 on the channel", func() bool { return len(dev.callOrder()) == 1 })
	run(2, obs.PriorityDeep)
	waitFor(t, "job 2 queued", func() bool { return s.Stats().QueueDepth == 1 })
	run(3, obs.PriorityL0)
	waitFor(t, "job 3 queued", func() bool { return s.Stats().QueueDepth == 2 })
	close(dev.gate)
	wg.Wait()
	if got := dev.callOrder(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("device order = %v, want [1 3 2] (L0 job 3 ahead of earlier deep job 2)", got)
	}
}

// TestL0QueuesAfterL0AheadOfDeep pins the wait list's insertion rule:
// with three channels held, an L0 call waits after the L0 calls already
// waiting and ahead of every deep one, each priority stays FIFO, and a
// seventh call finds the list full and takes the CPU lane.
func TestL0QueuesAfterL0AheadOfDeep(t *testing.T) {
	// One gate steps all three channels: each send lets one merge finish.
	dev := &gateExec{fakeExec: fakeExec{name: "fcae"}, gate: make(chan struct{})}
	s := newTestSched(t, Config{Devices: []compaction.Executor{dev, dev, dev}, CPU: &fakeExec{name: "cpu"}})
	var wg sync.WaitGroup
	run := func(num uint64, pri obs.Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Execute(testJobNum(num), &nullEnv{}, pri); err != nil {
				t.Errorf("Execute(%d): %v", num, err)
			}
		}()
	}
	for num := uint64(101); num <= 103; num++ {
		run(num, obs.PriorityDeep)
		waitFor(t, fmt.Sprintf("job %d on a channel", num), func() bool { return len(dev.callOrder()) == int(num-100) })
	}
	for i, pri := range []obs.Priority{obs.PriorityDeep, obs.PriorityL0, obs.PriorityDeep, obs.PriorityL0, obs.PriorityDeep, obs.PriorityL0} {
		run(uint64(i+1), pri)
		waitFor(t, fmt.Sprintf("job %d waiting", i+1), func() bool { return s.Stats().QueueDepth == i+1 })
	}
	_, route, err := s.Execute(testJobNum(7), &nullEnv{}, obs.PriorityL0)
	if err != nil || route.Reason != obs.RouteSaturated {
		t.Fatalf("seventh call: route %+v, err %v; want reason %q", route, err, obs.RouteSaturated)
	}
	// Each step frees one channel, which the head of the list takes.
	for started := 4; started <= 9; started++ {
		dev.gate <- struct{}{}
		waitFor(t, fmt.Sprintf("merge %d to start", started), func() bool { return len(dev.callOrder()) == started })
	}
	close(dev.gate)
	wg.Wait()
	if got, want := dev.callOrder()[3:], []uint64{2, 4, 6, 1, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("wait-list order = %v, want %v", got, want)
	}
}

// TestCloseWaitsForTheMerge proves Execute outlives its merge: while a
// device merge is running, neither a concurrent Close nor the Execute
// call returns, and once the merge ends Execute reports its result.
func TestCloseWaitsForTheMerge(t *testing.T) {
	dev := &gateExec{fakeExec: fakeExec{name: "fcae"}, gate: make(chan struct{})}
	s := newTestSched(t, Config{Devices: []compaction.Executor{dev}, CPU: &fakeExec{name: "cpu"}})
	type outcome struct {
		res *compaction.Result
		err error
	}
	executed := make(chan outcome, 1)
	go func() {
		res, _, err := s.Execute(testJobNum(1), &nullEnv{}, obs.PriorityDeep)
		executed <- outcome{res, err}
	}()
	waitFor(t, "the merge on the channel", func() bool { return len(dev.callOrder()) == 1 })
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, "Close to begin", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	select {
	case out := <-executed:
		t.Fatalf("Execute returned (%v, %v) while its merge was running", out.res, out.err)
	case err := <-closed:
		t.Fatalf("Close returned %v while a merge was running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(dev.gate)
	if out := <-executed; out.err != nil || out.res == nil {
		t.Fatalf("Execute = (%v, %v), want the merge's result", out.res, out.err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCloseWaitsForTheCPUMerge proves Close waits for Execute calls, not
// for device lanes: a job whose only device attempt faults has given its
// lane back and falls back to a held CPU merge, and Close must not return
// until that merge and its Execute call have.
func TestCloseWaitsForTheCPUMerge(t *testing.T) {
	cpu := &gateExec{fakeExec: fakeExec{name: "cpu"}, gate: make(chan struct{})}
	s := newTestSched(t, Config{
		Devices:  []compaction.Executor{&fakeExec{name: "fcae"}},
		CPU:      cpu,
		Injector: NewScriptInjector(Fault{Kind: FaultError}),
		Tuning:   Tuning{MaxDeviceRetries: -1},
	})
	executed := make(chan error, 1)
	go func() {
		_, route, err := s.Execute(testJobNum(1), &nullEnv{}, obs.PriorityDeep)
		if err == nil && route.Reason != obs.RouteDeviceFault {
			err = fmt.Errorf("route %+v, want the fault fallback", route)
		}
		executed <- err
	}()
	waitFor(t, "the fallback merge on the CPU lane", func() bool { return len(cpu.callOrder()) == 1 })
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, "Close to begin", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	select {
	case err := <-executed:
		t.Fatalf("Execute returned %v while its CPU merge was running", err)
	case err := <-closed:
		t.Fatalf("Close returned %v while a CPU merge was running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(cpu.gate)
	if err := <-executed; err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// arenaExec is a fakeExec that reports a staging arena, implementing the
// scheduler's ArenaSizer.
type arenaExec struct {
	fakeExec
	arenaBytes  int64
	inputBudget int64
	highWater   atomic.Int64
}

func (e *arenaExec) ArenaBytes() int64       { return e.arenaBytes }
func (e *arenaExec) ArenaInputBudget() int64 { return e.inputBudget }
func (e *arenaExec) ArenaHighWater() int64   { return e.highWater.Load() }

// TestArenaHighWaterStats proves Stats surfaces each channel's live
// high-water mark per snapshot and PublishMetrics exposes the pool peak
// as dispatch_arena_high_water_bytes.
func TestArenaHighWaterStats(t *testing.T) {
	devA := &arenaExec{fakeExec: fakeExec{name: "fcae0"}, arenaBytes: 1 << 20, inputBudget: 1 << 19}
	devB := &arenaExec{fakeExec: fakeExec{name: "fcae1"}, arenaBytes: 1 << 20, inputBudget: 1 << 19}
	s := newTestSched(t, Config{Devices: []compaction.Executor{devA, devB}, CPU: &fakeExec{name: "cpu"}})
	if hw := s.Stats().ArenaHighWater; hw != nil {
		t.Fatalf("ArenaHighWater = %v before any occupancy, want nil (omitted)", hw)
	}
	devA.highWater.Store(4096)
	devB.highWater.Store(8192)
	st := s.Stats()
	if len(st.ArenaHighWater) != 2 || st.ArenaHighWater[0] != 4096 || st.ArenaHighWater[1] != 8192 {
		t.Fatalf("ArenaHighWater = %v, want [4096 8192]", st.ArenaHighWater)
	}
	r := obs.NewRegistry()
	s.PublishMetrics(r)
	snap := r.Snapshot()
	if got := snap.Gauges["dispatch_arena_high_water_bytes"]; got != 8192 {
		t.Fatalf("dispatch_arena_high_water_bytes = %v, want 8192 (most-pressured channel)", got)
	}
	if got := snap.Gauges["dispatch_arena_high_water_bytes_chan0"]; got != 4096 {
		t.Fatalf("dispatch_arena_high_water_bytes_chan0 = %v, want 4096", got)
	}
	if got := snap.Gauges["dispatch_arena_high_water_bytes_chan1"]; got != 8192 {
		t.Fatalf("dispatch_arena_high_water_bytes_chan1 = %v, want 8192", got)
	}
}

// TestArenaHighWaterGaugeSkipsNonSizers proves the per-channel high-water
// gauges only register for channels whose executor stages through an
// arena: a plain device channel gets no _chan<i> gauge.
func TestArenaHighWaterGaugeSkipsNonSizers(t *testing.T) {
	dev := &arenaExec{fakeExec: fakeExec{name: "fcae0"}, arenaBytes: 1 << 20, inputBudget: 1 << 19}
	plain := &fakeExec{name: "fcae1"}
	s := newTestSched(t, Config{Devices: []compaction.Executor{dev, plain}, CPU: &fakeExec{name: "cpu"}})
	r := obs.NewRegistry()
	s.PublishMetrics(r)
	snap := r.Snapshot()
	if _, ok := snap.Gauges["dispatch_arena_high_water_bytes_chan0"]; !ok {
		t.Fatalf("missing dispatch_arena_high_water_bytes_chan0 for the arena-sized channel")
	}
	if _, ok := snap.Gauges["dispatch_arena_high_water_bytes_chan1"]; ok {
		t.Fatalf("dispatch_arena_high_water_bytes_chan1 registered for a channel with no arena")
	}
}

// TestArenaAdmission proves a job larger than the channels' staging
// arenas routes straight to the CPU lane without a device attempt.
func TestArenaAdmission(t *testing.T) {
	dev := &arenaExec{fakeExec: fakeExec{name: "fcae", maxRuns: 4}, arenaBytes: 1 << 20, inputBudget: 512}
	cpu := &fakeExec{name: "cpu"}
	s := newTestSched(t, Config{Devices: []compaction.Executor{dev}, CPU: cpu})
	if got := s.pool.ArenaBudget; got != 512 {
		t.Fatalf("pool.ArenaBudget = %d, want 512", got)
	}
	_, route, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep) // 1KiB input > 512B budget
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !route.Fallback() || route.Reason != obs.RouteArena || route.Lane != obs.LaneCPU {
		t.Fatalf("route = %+v, want CPU fallback with reason %q", route, obs.RouteArena)
	}
	if dev.calls.Load() != 0 || cpu.calls.Load() != 1 {
		t.Fatalf("calls dev=%d cpu=%d, want 0/1 (admission must not touch the device)", dev.calls.Load(), cpu.calls.Load())
	}
	st := s.Stats()
	if st.FallbackArena != 1 {
		t.Fatalf("FallbackArena = %d, want 1", st.FallbackArena)
	}
	if st.ArenaBytes != 1<<20 {
		t.Fatalf("Stats().ArenaBytes = %d, want %d", st.ArenaBytes, 1<<20)
	}
}

// TestArenaExhaustedFallsBack proves a device-side arena overflow routes
// to the CPU lane deterministically: one attempt, no retries.
func TestArenaExhaustedFallsBack(t *testing.T) {
	dev := &fakeExec{name: "fcae", err: fmt.Errorf("stage run 0: %w", compaction.ErrArenaExhausted)}
	cpu := &fakeExec{name: "cpu"}
	s := newTestSched(t, Config{
		Devices: []compaction.Executor{dev},
		CPU:     cpu,
		Tuning:  Tuning{RetryBackoff: time.Millisecond},
	})
	_, route, err := s.Execute(testJob(1), &nullEnv{}, obs.PriorityDeep)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !route.Fallback() || route.Reason != obs.RouteArena {
		t.Fatalf("route = %+v, want CPU fallback with reason %q", route, obs.RouteArena)
	}
	if route.DeviceAttempts != 1 || dev.calls.Load() != 1 {
		t.Fatalf("attempts=%d devCalls=%d, want exactly one device attempt (no retries on a deterministic overflow)", route.DeviceAttempts, dev.calls.Load())
	}
	if cpu.calls.Load() != 1 {
		t.Fatalf("cpu calls = %d, want 1", cpu.calls.Load())
	}
	st := s.Stats()
	if st.FallbackArena != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 arena fallback and 0 retries", st)
	}
}

// TestTuningValidate covers the rejection paths.
func TestTuningValidate(t *testing.T) {
	bad := []Tuning{
		{DeviceDeadline: -time.Second},
		{MaxDeviceRetries: -2},
		{RetryBackoff: -time.Millisecond},
		{DeviceImageBudget: -1},
	}
	for i, tn := range bad {
		if err := tn.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, tn)
		}
	}
	if err := (Tuning{}).Validate(); err != nil {
		t.Errorf("zero Tuning rejected: %v", err)
	}
	if _, err := New(Config{Devices: []compaction.Executor{nil}}); err == nil {
		t.Errorf("New accepted a nil device channel")
	}
}
