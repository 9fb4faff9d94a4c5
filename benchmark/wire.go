package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"fcae"
)

// wireSpec describes one of the three server workloads. Every one hosts
// fcae.OpenServer on 127.0.0.1:0 and its load generator in this process,
// talks over 2 client connections, and is a closed loop: each logical
// client sends its next request when the reply to the last arrives.
type wireSpec struct {
	name      string
	records   uint64 // keys preloaded before the clock starts
	valueSize int
	clients   int // logical clients in flight over the 2 connections
	roundOps  int // ops per measured round, all clients together
	mix       mix
	dist      keyDist
	// op and op2 say which class of request feeds the op_* and op2_*
	// end-to-end metrics.
	op, op2 class
}

const wireConns = 2

var wireSpecs = map[string]wireSpec{
	// 200k x (16 B + 256 B) is ~55 MB, far above the 8 MiB block cache
	// and the 4 MiB memtable: reads go to tables while flushes and
	// compactions run behind the writes.
	wlWireMixed: {
		name: wlWireMixed, records: 200_000, valueSize: 256, clients: 2, roundOps: 50_000,
		mix: mix{get: 0.5, put: 0.5}, dist: distZipfian, op: classRead, op2: classWrite,
	},
	// Same store; iterator construction, merging and 25 KB replies
	// dominate and the point-read path is idle.
	wlWireScan: {
		name: wlWireScan, records: 200_000, valueSize: 256, clients: 2, roundOps: 6_000,
		mix: mix{scan: 0.95, insert: 0.05}, dist: distZipfian, op: classScan, op2: classWrite,
	},
	// 20k x 128 B fits the memtable and the cache; 64 logical clients
	// keep the pipeline, the coalescer and the writer queue full.
	wlWirePipelined: {
		name: wlWirePipelined, records: 20_000, valueSize: 128, clients: 64, roundOps: 80_000,
		mix: mix{get: 0.5, put: 0.5}, dist: distUniform, op: classRead, op2: classWrite,
	},
}

// wireRig is one server under test with its clients' checking state.
type wireRig struct {
	spec    wireSpec
	dir     string
	srv     *fcae.Server
	cl      *fcae.Client
	events  *storeEvents
	clients []*client
	openMs  float64
}

// close tears the rig down on any path; safe to call twice.
func (r *wireRig) close() {
	if r == nil {
		return
	}
	if r.cl != nil {
		_ = r.cl.Close()
		r.cl = nil
	}
	if r.srv != nil {
		_ = r.srv.Close()
		r.srv = nil
	}
	_ = os.RemoveAll(r.dir)
}

// setupWire is everything before the clock starts: open the server,
// preload through the store's own Write, drain flushes and compactions,
// dial. It returns the rig and how long that took.
func setupWire(spec wireSpec, workDir string, codec *valueCodec, tr *tracer) (*wireRig, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(workDir, spec.name+"-")
	if err != nil {
		return nil, 0, err
	}
	rig := &wireRig{spec: spec, dir: dir, events: newStoreEvents(tr)}
	t0 := time.Now()
	rig.srv, err = fcae.OpenServer(dir, fcae.Options{EventListener: rig.events}, fcae.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	rig.openMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	db := rig.srv.DB()
	var batch fcae.Batch
	var key, val []byte
	for id := uint64(0); id < spec.records; id++ {
		key = appendKey(key[:0], id)
		val = codec.encode(val[:0], id, 1, spec.valueSize)
		batch.Put(key, val)
		if batch.Len() == 256 || id == spec.records-1 {
			if err := db.Write(&batch); err != nil {
				rig.close()
				return nil, 0, fmt.Errorf("preload: %w", err)
			}
			batch.Reset()
		}
	}
	if err := db.WaitIdle(); err != nil {
		rig.close()
		return nil, 0, fmt.Errorf("preload drain: %w", err)
	}
	rig.cl, err = fcae.DialServer(fcae.ClientOptions{Addr: rig.srv.Addr().String(), Conns: wireConns})
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	for i := 0; i < spec.clients; i++ {
		rig.clients = append(rig.clients, newClient(i, spec.clients, spec.records, spec.valueSize, codec, 1))
	}
	return rig, time.Since(start), nil
}

// round runs one batch of ops, every client concurrently against its own
// target, and returns the merged tally and the wall time of the round.
func runRound(clients []*client, targets []target, streams [][]op, bufs []*spanBuf, reqBase uint64) (*tally, time.Duration) {
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		base := reqBase
		for _, s := range streams[:i] {
			base += uint64(len(s))
		}
		var buf *spanBuf
		if bufs != nil {
			buf = bufs[i]
		}
		go func(c *client, i int) {
			defer wg.Done()
			c.run(targets[i], streams[i], buf, base, &tallies[i])
		}(c, i)
	}
	wg.Wait()
	wall := time.Since(start)
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total, wall
}

// streams builds every client's ops for one round, before the round's
// clock starts.
func (r *wireRig) streams(seed int64, round int) [][]op {
	per := r.spec.roundOps / r.spec.clients
	out := make([][]op, r.spec.clients)
	for i := range out {
		out[i] = opStream(seed, i, r.spec.clients, round, per, r.spec.mix, r.spec.dist, r.spec.records)
	}
	return out
}

func (r *wireRig) wireTargets() []target {
	out := make([]target, len(r.clients))
	for i := range out {
		out[i] = wireTarget{r.cl}
	}
	return out
}

// roundStats is the per-round figures the end-to-end metrics are taken
// from: each is the typical round's (see typical).
type roundStats struct {
	opsPerS, mbPerS []float64
	p50             [numClasses][]float64
}

func (s *roundStats) add(t *tally, wall time.Duration) {
	s.opsPerS = append(s.opsPerS, float64(t.ops)/wall.Seconds())
	s.mbPerS = append(s.mbPerS, float64(t.userBytes)/1e6/wall.Seconds())
	for c := range t.lat {
		if len(t.lat[c]) == 0 {
			continue
		}
		s.p50[c] = append(s.p50[c], t.lat[c].summarize().P50)
	}
}

// report sets the rate and latency end-to-end metrics from the typical
// round, op and op2 naming the classes that feed op_* and op2_*.
func (s *roundStats) report(m *measured, op, op2 class) {
	m.set("ops_per_s", typical(s.opsPerS, true))
	m.set("mb_per_s", typical(s.mbPerS, true))
	m.set("op_p50_us", typical(s.p50[op], false))
	m.set("op2_p50_us", typical(s.p50[op2], false))
}

// runWire measures one server workload. Untraced, it sets up several
// times (setup_s is the median), then runs rounds until `seconds` of
// measured wall time have passed, and reports the typical round. Traced, it
// sets up once and splits the time between an untraced round, a traced
// round, the same kind of round replayed directly on the store, and the
// layer probes.
func runWire(spec wireSpec, cfg runConfig) (*measured, error) {
	m := newMeasured()
	codec := newValueCodec(cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var rig *wireRig
	defer func() { rig.close() }()
	setup, err := repeatSetup(cfg, func() (time.Duration, error) {
		if rig != nil {
			rig.close()
		}
		var took time.Duration
		var err error
		rig, took, err = setupWire(spec, cfg.workDir, codec, tr)
		return took, err
	})
	if err != nil {
		return nil, err
	}
	m.set("setup_s", setup)
	m.set("lsm.open_ms", rig.openMs)

	db := rig.srv.DB()
	proc0, snap0 := readProc(), takeSnapshot(db, rig.events)
	run := &wireRun{rig: rig, seed: cfg.seed, wire: &tally{}, direct: &tally{}}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 5
	}
	untraced := run.rounds(budget, rig.wireTargets(), nil, run.wire)
	untraced.report(m, spec.op, spec.op2)
	if cfg.trace {
		run.traced(m, tr, budget, typical(untraced.opsPerS, true), cfg.probeTime)
	}

	// Counters over the measured interval, read before anything is torn
	// down.
	counterMetrics(m, snap0, takeSnapshot(db, rig.events), run.wall)
	clientMetrics(m, run.wire)

	// Drain, then the whole-life write amplification of this store.
	_ = rig.cl.Close()
	rig.cl = nil
	t0 := time.Now()
	if err := db.WaitIdle(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	m.set("lsm.drain_s", time.Since(t0).Seconds())
	if st := db.Stats(); st.BytesWritten > 0 {
		m.set("write_amp", float64(st.FlushBytes+st.CompactionWrite)/float64(st.BytesWritten))
	}
	shapeMetrics(m, db)
	procMetrics(m, proc0, readProc(), run.wire.ops+run.direct.ops)
	bgErrors := rig.events.totals().bgErrors
	if err := rig.srv.Close(); err != nil {
		return nil, fmt.Errorf("server close: %w", err)
	}
	rig.srv = nil

	// Reopen as an embedder would and check every key against the last
	// version a client saw acknowledged.
	if err := verifyReopened(m, rig.dir, rig.clients, spec.valueSize); err != nil {
		return nil, err
	}
	m.attempted += run.wire.ops + run.direct.ops
	m.failed += run.wire.failed + run.direct.failed + bgErrors
	for _, t := range []*tally{run.wire, run.direct} {
		if t.firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %v\n", spec.name, t.firstErr)
		}
	}
	return m, finishTrace(m, tr, codec, spec.valueSize, cfg, spec.name)
}

// wireRun is the progress of one server run: the next round and request
// numbers, the wall time measured so far, and the samples taken over the
// wire and in the direct replay.
type wireRun struct {
	rig          *wireRig
	seed         int64
	round        int
	nextReq      uint64
	wall         time.Duration
	wire, direct *tally
}

// rounds runs rounds against targets until budget has been measured (at
// least one), adds their samples to into, and returns the per-round
// figures.
func (w *wireRun) rounds(budget time.Duration, targets []target, bufs []*spanBuf, into *tally) roundStats {
	var stats roundStats
	for spent := time.Duration(0); spent < budget || len(stats.opsPerS) == 0; {
		t, wall := runRound(w.rig.clients, targets, w.rig.streams(w.seed, w.round), bufs, w.nextReq+1)
		stats.add(t, wall)
		into.merge(t)
		w.nextReq += uint64(t.ops)
		w.round++
		w.wall += wall
		spent += wall
	}
	return stats
}

// traced is the traced part of a server run: rounds over the wire with a
// span per request, then the same kind of rounds replayed directly on the
// store with every store call timed, so the server's share of a request
// is the difference of the two medians.
func (w *wireRun) traced(m *measured, tr *tracer, budget time.Duration, untracedOpsPerS float64, probe time.Duration) {
	bufs := make([]*spanBuf, len(w.rig.clients))
	for i := range bufs {
		bufs[i] = tr.buffer()
	}
	wire := &tally{}
	stats := w.rounds(budget, w.rig.wireTargets(), bufs, wire)
	w.wire.merge(wire)
	m.set("bench.trace_overhead_pct", ratio(untracedOpsPerS-typical(stats.opsPerS, true), untracedOpsPerS)*100)
	codecProbe(m, w.rig, w.rig.streams(w.seed, w.round), probe)

	times := make([]*layerTimes, len(w.rig.clients))
	targets := make([]target, len(w.rig.clients))
	for i := range targets {
		times[i] = &layerTimes{}
		targets[i] = &directTarget{db: w.rig.srv.DB(), times: times[i], buf: bufs[i]}
	}
	direct := &tally{}
	w.rounds(budget, targets, bufs, direct)
	w.direct.merge(direct)
	layerMetrics(m, mergeLayerTimes(times))
	for c, name := range map[class]string{classRead: "server.get_self_us", classWrite: "server.put_self_us", classScan: "server.scan_self_us"} {
		if len(wire.lat[c]) > 0 && len(direct.lat[c]) > 0 {
			m.set(name, wire.lat[c].summarize().P50-direct.lat[c].summarize().P50)
		}
	}
}

// verifyReopened reopens the closed store in dir, times the reopen,
// drains it, measures the directory, and checks every key.
func verifyReopened(m *measured, dir string, clients []*client, valueSize int) error {
	t0 := time.Now()
	db, err := fcae.Open(dir, fcae.Options{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	m.set("lsm.reopen_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	defer func() { _ = db.Close() }() // only read from; its directory is removed next
	if err := db.WaitIdle(); err != nil {
		return fmt.Errorf("reopen drain: %w", err)
	}
	checked, failed, firstErr := verifyStore(db, clients)
	m.attempted += checked
	m.failed += failed
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: reopened store: first failure: %v\n", firstErr)
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	if checked > 0 {
		m.set("lsm.space_amp", float64(size)/float64(checked*int64(keyLen+valueSize)))
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
