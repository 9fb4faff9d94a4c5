package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"fcae/internal/bench"
	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/dispatch"
	"fcae/internal/keys"
	"fcae/internal/obs"
	"fcae/internal/sstable"
)

// compactSpec sizes compact-merge: one fixed merge job, the paper's
// subject in isolation. Four sorted runs interleave key by key, and every
// fourth entry of runs 1 and 3 is an older version of a key in the run
// before, so the merge alternates between inputs and must drop an eighth
// of them.
// ~11 MB of input is the size of job a store with 2 MiB tables actually
// issues (four L0 files and the L1 tables under them).
type compactSpec struct {
	runs, entries, valueSize int
}

var compactDefault = compactSpec{runs: 4, entries: 10_000, valueSize: 256}

// maxOutput is a default store's 2 MiB table size.
const maxOutput = 2 << 20

// compactJob is the job's inputs plus what a correct merge must produce.
type compactJob struct {
	runs      [][]compaction.Table
	input     int64
	live      map[uint64]uint64 // surviving id -> the version that must survive
	userBytes int64             // key+value bytes of the survivors
}

// buildCompactJob builds the input runs in memory from the seed. Run 0 is
// the newest.
func buildCompactJob(spec compactSpec, codec *valueCodec) (*compactJob, error) {
	job := &compactJob{live: map[uint64]uint64{}}
	var key, val, ikey []byte
	for r := 0; r < spec.runs; r++ {
		var buf bytes.Buffer
		w := sstable.NewWriter(&buf, tableOpts)
		for i := 0; i < spec.entries; i++ {
			id := uint64(i*spec.runs + r)
			if r%2 == 1 && i%4 == 0 {
				id-- // the key of entry i in the next newer run, which shadows this one
			}
			version := uint64(spec.runs - r)
			key = appendKey(key[:0], id)
			val = codec.encode(val[:0], id, version, spec.valueSize)
			seq := version*10_000_000 + uint64(i)
			ikey = keys.MakeInternal(ikey[:0], key, seq, keys.KindSet)
			if err := w.Add(ikey, val); err != nil {
				return nil, err
			}
			if job.live[id] < version {
				job.live[id] = version
			}
		}
		if _, err := w.Finish(); err != nil {
			return nil, err
		}
		data := memFile(append([]byte(nil), buf.Bytes()...))
		job.runs = append(job.runs, []compaction.Table{{Num: uint64(r + 1), Size: int64(len(data)), Data: data}})
		job.input += int64(len(data))
	}
	job.userBytes = int64(len(job.live) * (keyLen + spec.valueSize))
	return job, nil
}

// job returns a fresh compaction.Job over the shared inputs.
func (c *compactJob) job(trace *obs.Trace) *compaction.Job {
	return &compaction.Job{
		Runs:             c.runs,
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        tableOpts,
		MaxOutputBytes:   maxOutput,
		Trace:            trace,
	}
}

// discardEnv throws outputs away: the timed repetitions.
type discardEnv struct{ next uint64 }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Close() error                { return nil }

func (e *discardEnv) NewOutput() (uint64, io.WriteCloser, error) {
	e.next++
	return e.next, discardFile{}, nil
}

// keepEnv keeps outputs in memory: the untimed, checked repetition.
type keepEnv struct{ files []*keptFile }

type keptFile struct{ bytes.Buffer }

func (*keptFile) Close() error { return nil }

func (e *keepEnv) NewOutput() (uint64, io.WriteCloser, error) {
	f := &keptFile{}
	e.files = append(e.files, f)
	return uint64(len(e.files)), f, nil
}

func (e *keepEnv) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, f := range e.files {
		h.Write(f.Bytes())
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// lane is one way of executing the job.
type lane struct {
	name string
	run  func(job *compaction.Job, env compaction.Env) (*compaction.Result, error)
}

// compactLanes builds the four lanes: the scheduler a default store uses,
// the scheduler with one 9-input engine channel, and the CPU executor
// called directly, sequential and pipelined at depth 4. stop releases the
// schedulers.
func compactLanes() (lanes []lane, engineSched *dispatch.Scheduler, stop func(), err error) {
	def, err := dispatch.New(dispatch.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	engine, err := core.NewExecutor(core.MultiInputConfig())
	if err != nil {
		_ = def.Close()
		return nil, nil, nil, err
	}
	eng, err := dispatch.New(dispatch.Config{Devices: []compaction.Executor{engine}})
	if err != nil {
		_ = def.Close()
		return nil, nil, nil, err
	}
	viaSched := func(s *dispatch.Scheduler) func(*compaction.Job, compaction.Env) (*compaction.Result, error) {
		return func(job *compaction.Job, env compaction.Env) (*compaction.Result, error) {
			res, _, err := s.Execute(job, env, obs.PriorityDeep)
			return res, err
		}
	}
	lanes = []lane{
		{"default", viaSched(def)},
		{"engine", viaSched(eng)},
		{"sequential", compaction.CPU{}.Compact},
		{"pipelined", compaction.CPU{Pipeline: compaction.PipelineConfig{Depth: 4}}.Compact},
	}
	return lanes, eng, func() { _ = def.Close(); _ = eng.Close() }, nil
}

// jobsPerRound is how many jobs each lane runs in one round. A round's
// p95 is its second slowest job.
const jobsPerRound = 20

// laneRuns is the timed repetitions of one lane: per round, the median
// and the p95 job in microseconds.
type laneRuns struct {
	p50, p95  []float64
	jobs      int
	wallNanos int64
	last      *compaction.Result
	stalls    compaction.PipelineStats
}

// jobUs is the job time of the typical round, in microseconds.
func (l *laneRuns) jobUs() float64 { return typical(l.p50, false) }

func (l *laneRuns) mbPerS(input int64) float64 {
	return ratio(float64(input)/1e6, l.jobUs()/1e6)
}

// runCompact measures compact-merge. Untraced it alternates the default
// and the engine lane for `seconds`; traced it runs all four lanes for a
// share of the time each, records a span per job with the job's own phase
// spans as children, and adds the simulated engine's stage figures and
// the model's error against the paper's tables.
func runCompact(spec compactSpec, cfg runConfig) (*measured, error) {
	m := newMeasured()
	codec := newValueCodec(cfg.seed)

	var job *compactJob
	setup, err := repeatSetup(cfg, func() (time.Duration, error) {
		start := time.Now()
		var err error
		job, err = buildCompactJob(spec, codec)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	m.set("setup_s", setup)

	lanes, engineSched, stop, err := compactLanes()
	if err != nil {
		return nil, err
	}
	defer stop()

	// One untimed, kept repetition per lane. Every lane's tables must
	// decode to the right merge, and the three CPU lanes must agree byte
	// for byte. The engine is held to the same entries, not the same
	// bytes: it cuts blocks and tables at its own boundaries.
	var want [sha256.Size]byte
	var outBytes int64
	for i, ln := range lanes {
		env := &keepEnv{}
		if _, err := ln.run(job.job(nil), env); err != nil {
			return nil, fmt.Errorf("%s lane: %w", ln.name, err)
		}
		checked, failed, firstErr := job.verify(env, codec)
		m.attempted += checked + 1
		m.failed += failed
		if firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s lane: first failure: %v\n", wlCompactMerge, ln.name, firstErr)
		}
		switch {
		case i == 0:
			want = env.digest()
			for _, f := range env.files {
				outBytes += int64(f.Len())
			}
		case ln.name != "engine" && env.digest() != want:
			m.failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s lane's bytes differ from the default lane's\n", wlCompactMerge, ln.name)
		}
	}
	m.set("write_amp", ratio(float64(outBytes), float64(job.input)))
	m.set("lsm.space_amp", ratio(float64(outBytes), float64(job.userBytes)))

	var tr *tracer
	var buf *spanBuf
	timed := lanes[:2]
	if cfg.trace {
		tr = newTracer()
		buf = tr.buffer()
		timed = lanes
	}
	proc0 := readProc()
	disp0 := engineSched.Stats()
	runs := make([]laneRuns, len(timed))
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	jobs := int64(0)
	var untracedJob latencies // default lane with no obs.Trace attached: the base of the tracing overhead
	if cfg.trace {
		for n := 0; n < jobsPerRound; n++ {
			start := time.Now()
			if _, err := lanes[0].run(job.job(nil), &discardEnv{}); err != nil {
				return nil, fmt.Errorf("%s lane: %w", lanes[0].name, err)
			}
			untracedJob = append(untracedJob, time.Since(start).Nanoseconds())
			jobs++
		}
	}
	for spent := time.Duration(0); spent < budget || len(runs[0].p50) == 0; {
		// One round: jobsPerRound jobs on each lane, the lanes taking
		// turns so a slow stretch of the machine falls on all of them.
		round := make([]latencies, len(timed))
		for n := 0; n < jobsPerRound; n++ {
			for i, ln := range timed {
				var trace *obs.Trace
				if buf != nil {
					trace = obs.NewTrace()
				}
				j := job.job(trace)
				start := time.Now()
				res, err := ln.run(j, &discardEnv{})
				end := time.Now()
				if err != nil {
					return nil, fmt.Errorf("%s lane: %w", ln.name, err)
				}
				wall := end.Sub(start)
				round[i] = append(round[i], wall.Nanoseconds())
				runs[i].last = res
				runs[i].stalls.Add(res.Stats.Pipeline)
				spent += wall
				jobs++
				if buf != nil {
					id := buf.reserve()
					for _, s := range trace.Spans() {
						buf.add("compaction."+s.Phase, id, uint64(jobs), start.Add(s.Start), start.Add(s.Start+s.Dur))
					}
					buf.finish(id, "dispatch."+ln.name, 0, 0, uint64(jobs), start, end)
				}
			}
		}
		for i := range timed {
			sum := round[i].summarize()
			runs[i].p50 = append(runs[i].p50, sum.P50)
			runs[i].p95 = append(runs[i].p95, sum.P95)
			runs[i].jobs += sum.N
			for _, w := range round[i] {
				runs[i].wallNanos += w
			}
		}
	}
	m.attempted += jobs

	def, eng := &runs[0], &runs[1]
	m.set("mb_per_s", def.mbPerS(job.input))
	m.set("ops_per_s", ratio(float64(def.last.Stats.PairsIn), def.jobUs()/1e6))
	m.set("op_p50_us", def.jobUs())
	m.set("op2_p50_us", eng.jobUs())
	m.set("dispatch.job_p95_us", typical(def.p95, false))

	// The engine lane must have run on the device every time.
	disp := engineSched.Stats()
	m.set("dispatch.device_jobs", float64(disp.DeviceJobs-disp0.DeviceJobs))
	m.set("dispatch.cpu_jobs", float64(disp.CPUJobs-disp0.CPUJobs))
	m.set("dispatch.fallbacks", float64(fallbacks(disp)-fallbacks(disp0)))
	m.set("dispatch.retries", float64(disp.Retries-disp0.Retries))
	if got := disp.DeviceJobs - disp0.DeviceJobs; got != int64(eng.jobs) {
		m.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: engine lane ran %d of %d jobs on the device\n", wlCompactMerge, got, eng.jobs)
	}

	// Simulated time, kept apart from host time: what the modelled card
	// would take, from the cycle count, not from any clock here.
	st := eng.last.Stats
	m.set("core.host_mb_per_s", eng.mbPerS(job.input))
	m.set("core.modeled_kernel_ms", float64(st.KernelTime.Nanoseconds())/1e6)
	m.set("core.modeled_pcie_ms", float64(st.TransferTime.Nanoseconds())/1e6)
	m.set("core.modeled_kernel_mb_per_s", ratio(float64(job.input)/1e6, st.KernelTime.Seconds()))
	m.set("core.pcie_share", ratio(float64(st.TransferTime), float64(st.KernelTime+st.TransferTime)))
	procMetrics(m, proc0, readProc(), jobs)

	if cfg.trace {
		base := untracedJob.summarize().P50
		m.set("bench.trace_overhead_pct", ratio(def.jobUs()-base, base)*100)
		seq, pipe := &runs[2], &runs[3]
		m.set("compaction.seq_mb_per_s", seq.mbPerS(job.input))
		m.set("compaction.pipe_mb_per_s", pipe.mbPerS(job.input))
		m.set("compaction.pipe_speedup", ratio(seq.jobUs(), pipe.jobUs()))
		pipeNanos := float64(pipe.wallNanos)
		m.set("compaction.pipe_encode_stall_share", ratio(float64(pipe.stalls.EncodeStallNanos), pipeNanos))
		m.set("compaction.pipe_prefetch_stall_share", ratio(float64(pipe.stalls.PrefetchStallNanos), pipeNanos))
		m.set("compaction.pipe_submit_stall_share", ratio(float64(pipe.stalls.SubmitStallNanos), pipeNanos))
		if err := stageMetrics(m, job); err != nil {
			return nil, err
		}
		paperMetrics(m)
	}
	return m, finishTrace(m, tr, codec, spec.valueSize, cfg, wlCompactMerge)
}

// verify decodes the kept outputs and checks the merge: keys strictly
// ascending across tables, exactly the surviving ids, each value intact
// and at the version that had to win.
func (c *compactJob) verify(env *keepEnv, codec *valueCodec) (checked, failed int64, firstErr error) {
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	ids := make([]uint64, 0, len(c.live))
	for id := range c.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	next := 0
	for n, f := range env.files {
		data := memFile(f.Bytes())
		if len(data) > maxOutput+maxOutput/4 {
			fail(fmt.Errorf("output %d is %d bytes, over the table size", n, len(data)))
		}
		r, err := sstable.NewReader(data, int64(len(data)), tableOpts, nil, uint64(n+1))
		if err != nil {
			fail(fmt.Errorf("output %d: %w", n, err))
			continue
		}
		it := r.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			checked++
			id, ok := parseKey(keys.UserKey(it.Key()))
			switch {
			case !ok:
				fail(fmt.Errorf("output %d: malformed key %q", n, it.Key()))
			case next >= len(ids) || id != ids[next]:
				fail(fmt.Errorf("output %d: key %d out of place", n, id))
			default:
				if v, err := codec.check(it.Value(), id, c.live[id]); err != nil {
					fail(err)
				} else if v != c.live[id] {
					fail(fmt.Errorf("key %d kept version %d, want %d", id, v, c.live[id]))
				}
			}
			next++
		}
		if err := it.Error(); err != nil {
			fail(err)
		}
	}
	if next != len(ids) {
		fail(fmt.Errorf("merge kept %d keys, want %d", next, len(ids)))
	}
	return checked, failed, firstErr
}

// stageMetrics runs the job once on a bare engine to read the per-stage
// busy cycles the executor does not pass on. All of it is simulated time.
func stageMetrics(m *measured, job *compactJob) error {
	cfg := core.MultiInputConfig()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return err
	}
	var images []*core.InputImage
	for _, run := range job.runs {
		img, err := core.BuildInputImage(run, cfg.WIn, tableOpts)
		if err != nil {
			return err
		}
		images = append(images, img)
	}
	res, err := eng.Run(images, core.Params{
		TableBytes:        maxOutput,
		Compress:          true,
		SmallestSnapshot:  keys.MaxSeq,
		BottomLevel:       true,
		CollectFilterKeys: true,
	})
	if err != nil {
		return err
	}
	st := res.Stats
	m.set("core.util_decoder", ratio(st.DecoderBusy, st.Cycles))
	m.set("core.util_comparer", ratio(st.ComparerBusy, st.Cycles))
	m.set("core.util_transfer", ratio(st.TransferBusy, st.Cycles))
	m.set("core.util_encoder", ratio(st.EncoderBusy, st.Cycles))
	return nil
}

// The paper's own numbers, so the model's error stands beside every
// simulated speed: Table V's V=64 column (2-input compaction speed, MB/s,
// by value length) and Table VI's best write-throughput speed-up at 512 B
// values (V=64 over LevelDB: 9.3 / 2.8).
var (
	paperTableVV64         = []float64{175.8, 291.7, 524.9, 745.4, 1026.3, 1205.6}
	paperTableVISpeedup512 = 9.3 / 2.8
)

// paperMetrics reruns the repo's Table V and Table VI at quick scale and
// reports how far the model sits from the paper. Both are simulated and
// repeat exactly.
func paperMetrics(m *measured) {
	tableV, _ := bench.TableV(bench.Quick)
	worst := 0.0
	for i, row := range tableV.Rows {
		got, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil || i >= len(paperTableVV64) {
			continue
		}
		want := paperTableVV64[i]
		if e := (got - want) / want * 100; e*e > worst*worst {
			worst = e
		}
	}
	m.set("core.tablev_max_err_pct", worst)
	tableVI, _ := bench.TableVI(bench.Quick)
	for _, row := range tableVI.Rows {
		if row[0] != "512" {
			continue
		}
		base, err1 := strconv.ParseFloat(row[1], 64)
		best, err2 := strconv.ParseFloat(row[len(row)-1], 64)
		if err1 == nil && err2 == nil {
			m.set("lsmsim.tablevi_speedup_512", ratio(best, base))
			m.set("lsmsim.tablevi_err_pct", (ratio(best, base)-paperTableVISpeedup512)/paperTableVISpeedup512*100)
		}
	}
}
