package lsm

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/dispatch"
	"fcae/internal/keys"
	"fcae/internal/obs"
	"fcae/internal/sstable"
)

// newDeviceChannels builds n independent FCAE engine instances, one per
// simulated device channel.
func newDeviceChannels(t *testing.T, n int) []compaction.Executor {
	t.Helper()
	devs := make([]compaction.Executor, n)
	for i := range devs {
		exec, err := core.NewExecutor(core.MultiInputConfig())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = exec
	}
	return devs
}

// overlapListener tracks how many non-trivial compactions are in flight at
// once. Events are sequenced under db.mu in state-machine order, so seeing
// a second CompactionBegin before the first job's CompactionEnd proves the
// two merges were genuinely concurrent.
type overlapListener struct {
	obs.NoopListener

	mu     sync.Mutex
	active map[uint64]bool
	peak   int
}

func (o *overlapListener) CompactionBegin(e obs.CompactionBeginEvent) {
	if e.TrivialMove {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.active == nil {
		o.active = make(map[uint64]bool)
	}
	o.active[e.JobID] = true
	if len(o.active) > o.peak {
		o.peak = len(o.active)
	}
}

func (o *overlapListener) CompactionEnd(e obs.CompactionEndEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.active, e.JobID)
}

func (o *overlapListener) Peak() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.peak
}

// TestCompactionConcurrency proves that with two device channels, two
// workers and no faults, merge compactions overlap in time (the tentpole's
// scaling claim: throughput scales with channels).
func TestCompactionConcurrency(t *testing.T) {
	ol := &overlapListener{}
	opts := Options{
		MemTableBytes:      16 << 10,
		BaseLevelBytes:     32 << 10,
		MaxOutputFileBytes: 16 << 10,
		BlockCacheBytes:    1 << 20,
		DispatchConfig: DispatchConfig{
			Workers: 3,
			Devices: newDeviceChannels(t, 2),
			// Benign latency on every device merge widens the overlap
			// window without introducing any fault (0% error rate).
			FaultInjector: dispatch.NewProbInjector(1, 0).WithSlow(1.0, 20*time.Millisecond),
		},
		EventListener: ol,
	}
	db := openTest(t, opts)

	rng := rand.New(rand.NewSource(42))
	val := make([]byte, 512)
	deadline := time.Now().Add(60 * time.Second)
	for round := 0; ol.Peak() < 2; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("no overlapping compactions after %d rounds (peak=%d)", round, ol.Peak())
		}
		for i := 0; i < 200; i++ {
			rng.Read(val)
			k := []byte(fmt.Sprintf("key%07d", rng.Intn(1<<16)))
			if err := db.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	ds := db.DispatchStats()
	if ds.DeviceJobs == 0 {
		t.Fatalf("dispatch stats = %+v, want device jobs > 0", ds)
	}
	t.Logf("peak concurrent compactions = %d, dispatch = %+v", ol.Peak(), ds)
}

// TestFaultInjectionIntegrity runs the acceptance scenario: 20%% device
// fault rate (errors, mid-merge write failures, stalls) across two
// channels and two workers, with retries disabled so every fault degrades
// to the CPU lane. Every key must survive, including across a reopen, and
// the metrics must show CPU-fallback routings.
func TestFaultInjectionIntegrity(t *testing.T) {
	dir := t.TempDir()
	mkOpts := func() Options {
		return Options{
			MemTableBytes:      16 << 10,
			BaseLevelBytes:     32 << 10,
			MaxOutputFileBytes: 16 << 10,
			BlockCacheBytes:    1 << 20,
			DispatchConfig: DispatchConfig{
				Workers:       3,
				Devices:       newDeviceChannels(t, 2),
				FaultInjector: dispatch.NewProbInjector(7, 0.2),
				Tuning: dispatch.Tuning{
					DeviceDeadline:   25 * time.Millisecond,
					RetryBackoff:     time.Millisecond,
					MaxDeviceRetries: -1, // every fault falls straight back to CPU
				},
			},
		}
	}
	db, err := Open(dir, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()

	rng := rand.New(rand.NewSource(99))
	model := map[string]string{}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	const keySpace = 1500

	// Keep writing rounds (overwrites and deletes included) until the
	// injector has demonstrably faulted device attempts and the scheduler
	// has routed fallbacks, then a few more rounds for good measure.
	deadline := time.Now().Add(90 * time.Second)
	for round := 0; ; round++ {
		for i := 0; i < 600; i++ {
			n := rng.Intn(keySpace)
			k := key(n)
			if rng.Intn(10) == 0 {
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, string(k))
				continue
			}
			v := make([]byte, 64+rng.Intn(192))
			rng.Read(v)
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = string(v)
		}
		ds := db.DispatchStats()
		if round >= 3 && ds.Faults > 0 && ds.FallbackFault > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault injection never fired: dispatch = %+v", ds)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	verify := func(stage string, d *DB) {
		t.Helper()
		for i := 0; i < keySpace; i++ {
			k := key(i)
			got, err := d.Get(k)
			want, ok := model[string(k)]
			switch {
			case !ok && err != ErrNotFound:
				t.Fatalf("%s: Get(%s) = %v, want ErrNotFound", stage, k, err)
			case ok && err != nil:
				t.Fatalf("%s: Get(%s) = %v, want value", stage, k, err)
			case ok && string(got) != want:
				t.Fatalf("%s: Get(%s) returned wrong value (%d bytes, want %d)", stage, k, len(got), len(want))
			}
		}
	}
	verify("live", db)

	ds := db.DispatchStats()
	st := db.Stats()
	if ds.Faults == 0 || ds.FallbackFault == 0 || st.SWFallbacks == 0 {
		t.Fatalf("expected faults and CPU fallbacks, dispatch = %+v, SWFallbacks = %d", ds, st.SWFallbacks)
	}
	m := db.Metrics()
	if m.Gauges["dispatch_fallback_fault"] == 0 {
		t.Fatalf("dispatch_fallback_fault gauge = 0, want > 0")
	}
	t.Logf("dispatch = %+v", ds)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen without fault injection: everything must still be there.
	re, err := Open(dir, Options{BlockCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	verify("reopen", re)
}

// TestDispatchStress is the -race stress scenario run explicitly by CI:
// concurrent writers and readers over a faulty two-channel device pool
// with two compaction workers, then full verification.
func TestDispatchStress(t *testing.T) {
	opts := Options{
		MemTableBytes:      16 << 10,
		BaseLevelBytes:     32 << 10,
		MaxOutputFileBytes: 16 << 10,
		BlockCacheBytes:    1 << 20,
		DispatchConfig: DispatchConfig{
			Workers:       3,
			Devices:       newDeviceChannels(t, 2),
			FaultInjector: dispatch.NewProbInjector(3, 0.3),
			Tuning: dispatch.Tuning{
				DeviceDeadline:   20 * time.Millisecond,
				RetryBackoff:     time.Millisecond,
				MaxDeviceRetries: 1,
			},
		},
	}
	db := openTest(t, opts)

	const (
		writers = 4
		perG    = 2000
	)
	var wg sync.WaitGroup
	value := func(g, i int) []byte {
		return bytes.Repeat([]byte{byte('a' + g)}, 120+(i%80))
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := []byte(fmt.Sprintf("s%d-key%06d", g, i))
				if err := db.Put(k, value(g, i)); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	// Readers race the writers; any value observed must be well-formed.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 2000; i++ {
				g, n := rng.Intn(writers), rng.Intn(perG)
				v, err := db.Get([]byte(fmt.Sprintf("s%d-key%06d", g, n)))
				if err == nil && !bytes.Equal(v, value(g, n)) {
					t.Errorf("reader saw torn value for s%d-key%06d", g, n)
					return
				}
				if err != nil && err != ErrNotFound {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < perG; i++ {
			k := []byte(fmt.Sprintf("s%d-key%06d", g, i))
			v, err := db.Get(k)
			if err != nil {
				t.Fatalf("Get(%s) = %v after idle", k, err)
			}
			if !bytes.Equal(v, value(g, i)) {
				t.Fatalf("Get(%s) returned wrong value", k)
			}
		}
	}
	t.Logf("dispatch = %+v, stats fallbacks = %d", db.DispatchStats(), db.Stats().SWFallbacks)
}

// TestDispatchConfigValidation covers DispatchConfig's own rejection paths.
func TestDispatchConfigValidation(t *testing.T) {
	devs := newDeviceChannels(t, 1)
	inj := dispatch.NewProbInjector(1, 0.5)
	bad := []Options{
		{DispatchConfig: DispatchConfig{Workers: -1}},
		{DispatchConfig: DispatchConfig{Devices: []compaction.Executor{nil}}},
		{DispatchConfig: DispatchConfig{FaultInjector: inj}}, // no devices to fault
		{DispatchConfig: DispatchConfig{Tuning: dispatch.Tuning{MaxDeviceRetries: -2}}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	ok := Options{DispatchConfig: DispatchConfig{
		Devices:       devs,
		Workers:       3,
		FaultInjector: dispatch.NewProbInjector(1, 0.1),
		Tuning:        dispatch.Tuning{MaxDeviceRetries: 2},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid DispatchConfig rejected: %v", err)
	}
	ok.DispatchConfig.Workers = 0
	if got := ok.WithDefaults().DispatchConfig; len(got.Devices) != 1 || got.Workers != 2 {
		t.Errorf("resolved config = %d devices, %d workers; want 1 and the default 2", len(got.Devices), got.Workers)
	}
}

// priorityListener records the priority tag of every compaction event and
// counts the non-trivial L0 merges in flight: the level claims allow one
// at a time, which is what keeps a deep job from waiting behind more than
// one L0 job in the dispatch queue.
type priorityListener struct {
	obs.NoopListener

	mu       sync.Mutex
	begins   map[uint64]obs.Priority // job id -> begin priority
	l0       int
	deep     int
	l0Merges int // non-trivial L0 merges between Begin and End
	bad      []string
}

func (p *priorityListener) CompactionBegin(e obs.CompactionBeginEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.begins == nil {
		p.begins = make(map[uint64]obs.Priority)
	}
	p.begins[e.JobID] = e.Priority
	want := obs.PriorityDeep
	if e.Level == 0 {
		want = obs.PriorityL0
	}
	if e.Priority != want {
		p.bad = append(p.bad, fmt.Sprintf("job %d: level %d tagged %q", e.JobID, e.Level, e.Priority))
	}
	if e.Level == 0 && !e.TrivialMove {
		p.l0Merges++
		if p.l0Merges > 1 {
			p.bad = append(p.bad, fmt.Sprintf("job %d: %d L0 merges in flight", e.JobID, p.l0Merges))
		}
	}
}

func (p *priorityListener) CompactionEnd(e obs.CompactionEndEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if begin, ok := p.begins[e.JobID]; ok && e.Priority != begin {
		p.bad = append(p.bad, fmt.Sprintf("job %d: begin %q != end %q", e.JobID, begin, e.Priority))
	}
	if e.Level == 0 && !e.TrivialMove {
		p.l0Merges--
	}
	if e.Priority == obs.PriorityL0 {
		p.l0++
	} else {
		p.deep++
	}
}

// TestCompactionPriorityEvents drives a five-worker pool until both L0
// and deep compactions have run, then checks every event carries the
// priority derived from its source level and that no two L0 merges were
// ever in flight together.
func TestCompactionPriorityEvents(t *testing.T) {
	pl := &priorityListener{}
	opts := Options{
		MemTableBytes:      16 << 10,
		BaseLevelBytes:     32 << 10,
		MaxOutputFileBytes: 16 << 10,
		BlockCacheBytes:    1 << 20,
		DispatchConfig: DispatchConfig{
			Devices: newDeviceChannels(t, 1),
			Workers: 5,
		},
		EventListener: pl,
	}
	db := openTest(t, opts)

	rng := rand.New(rand.NewSource(7))
	val := make([]byte, 512)
	deadline := time.Now().Add(60 * time.Second)
	for {
		pl.mu.Lock()
		done := pl.l0 > 0 && pl.deep > 0
		pl.mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw both priorities: l0=%d deep=%d", pl.l0, pl.deep)
		}
		for i := 0; i < 200; i++ {
			rng.Read(val)
			k := []byte(fmt.Sprintf("key%07d", rng.Intn(1<<16)))
			if err := db.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(pl.bad) > 0 {
		t.Fatalf("mis-tagged compaction events: %v", pl.bad)
	}
}

// TestArenaFallbackIntegrity opens the store with deliberately tiny
// per-channel staging arenas: most merges exceed the arena input budget
// and must route to the CPU lane, and no data may be lost on the way.
func TestArenaFallbackIntegrity(t *testing.T) {
	cfg := core.MultiInputConfig()
	cfg.StagingBytes = 8 << 10 // ~4KiB data region; typical merges exceed it
	exec, err := core.NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		MemTableBytes:      16 << 10,
		BaseLevelBytes:     32 << 10,
		MaxOutputFileBytes: 16 << 10,
		BlockCacheBytes:    1 << 20,
		DispatchConfig: DispatchConfig{
			Devices: []compaction.Executor{exec},
			Workers: 2,
		},
	}
	db := openTest(t, opts)

	rng := rand.New(rand.NewSource(11))
	model := map[string]string{}
	deadline := time.Now().Add(60 * time.Second)
	for db.DispatchStats().FallbackArena == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tiny arena never forced a fallback: dispatch = %+v", db.DispatchStats())
		}
		for i := 0; i < 300; i++ {
			k := []byte(fmt.Sprintf("key%05d", rng.Intn(2000)))
			v := make([]byte, 64+rng.Intn(192))
			rng.Read(v)
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = string(v)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	for k, want := range model {
		got, err := db.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s) = %v after arena fallbacks", k, err)
		}
		if string(got) != want {
			t.Fatalf("Get(%s) returned wrong value", k)
		}
	}
	ds := db.DispatchStats()
	if ds.FallbackArena == 0 {
		t.Fatalf("dispatch = %+v, want arena fallbacks", ds)
	}
	if m := db.Metrics(); m.Gauges["dispatch_fallback_arena"] == 0 {
		t.Fatalf("dispatch_fallback_arena gauge = 0, want > 0")
	}
	t.Logf("dispatch = %+v", ds)
}

// memOutputs is a compaction.Env keeping every output file in memory.
type memOutputs struct {
	next  uint64
	files map[uint64]*bytes.Buffer
}

type memOutput struct{ *bytes.Buffer }

func (memOutput) Close() error { return nil }

func (e *memOutputs) NewOutput() (uint64, io.WriteCloser, error) {
	if e.files == nil {
		e.files = make(map[uint64]*bytes.Buffer)
	}
	e.next++
	e.files[e.next] = new(bytes.Buffer)
	return e.next, memOutput{e.files[e.next]}, nil
}

// TestFaultFallbackWritesTheDevicesFiles runs one job through a scheduler
// whose device succeeds and through schedulers whose device faults with
// retries off, so the job is redone on the CPU lane (obs.RouteDeviceFault):
// the tables the fallback leaves are the device's, byte for byte. Which
// lane ran is not recorded on disk, which is what lets a crash between a
// device fault and its CPU retry be recovered without knowing either.
func TestFaultFallbackWritesTheDevicesFiles(t *testing.T) {
	opts := Options{}.WithDefaults().tableOpts()
	job := &compaction.Job{
		SmallestSnapshot: 2500, // some shadowed versions are still visible to it
		TableOpts:        opts,
		MaxOutputBytes:   32 << 10,
	}
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < 3; r++ {
		var buf bytes.Buffer
		w := sstable.NewWriter(&buf, opts)
		for i := 0; i < 1500; i++ {
			kind, val := keys.KindSet, make([]byte, 200)
			rng.Read(val[:100])
			if i%17 == r {
				kind, val = keys.KindDelete, nil
			}
			// Runs share every other key; newer runs carry higher sequences.
			ik := keys.MakeInternal(nil, []byte(fmt.Sprintf("key%07d", i*2+r%2)), uint64((3-r)*1500+i), kind)
			if err := w.Add(ik, val); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		job.Runs = append(job.Runs, []compaction.Table{{Num: uint64(r + 1), Size: int64(buf.Len()), Data: bytes.NewReader(buf.Bytes())}})
	}

	run := func(inj dispatch.FaultInjector) (*memOutputs, *compaction.Result, dispatch.Route) {
		t.Helper()
		s, err := dispatch.New(dispatch.Config{
			Devices:  newDeviceChannels(t, 1),
			Injector: inj,
			Tuning:   dispatch.Tuning{MaxDeviceRetries: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		env := &memOutputs{}
		res, route, err := s.Execute(job, env, obs.PriorityL0)
		if err != nil {
			t.Fatal(err)
		}
		return env, res, route
	}

	devEnv, devRes, route := run(nil)
	if !route.OnDevice() {
		t.Fatalf("clean run routed to %v (%v), want a device channel", route.Lane, route.Reason)
	}
	if len(devRes.Outputs) < 3 {
		t.Fatalf("device wrote %d tables, want the job cut into 3 or more", len(devRes.Outputs))
	}
	for _, fault := range []dispatch.Fault{
		{Kind: dispatch.FaultError},                         // the card rejects the job
		{Kind: dispatch.FaultWrite, FailAfterBytes: 40_000}, // it dies inside its second table
	} {
		env, res, route := run(dispatch.NewScriptInjector(fault))
		if route.Lane != obs.LaneCPU || route.Reason != obs.RouteDeviceFault || route.Faults != 1 {
			t.Fatalf("%v fault: route = %+v, want the CPU lane for obs.RouteDeviceFault after one fault", fault.Kind, route)
		}
		if len(res.Outputs) != len(devRes.Outputs) {
			t.Fatalf("%v fault: fallback wrote %d tables, device %d", fault.Kind, len(res.Outputs), len(devRes.Outputs))
		}
		for i, ot := range res.Outputs {
			want, got := devEnv.files[devRes.Outputs[i].Num].Bytes(), env.files[ot.Num].Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("%v fault: table %d of the fallback (%d bytes) is not the device's (%d bytes)", fault.Kind, i, len(got), len(want))
			}
		}
	}
}
