package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"fcae"
)

// embedSpec sizes embed-store: the library with no server, one goroutine,
// a fresh store. Fill is the paper's db_bench random write: `records`
// PUTs of 1 KiB uniform over `records` ids, then WaitIdle, so the clock
// covers the compaction debt the writes leave. The read and scan phases
// then hit the deep, many-table tree that load produced, with no writer
// beside them.
type embedSpec struct {
	records   uint64
	valueSize int
	readRound int // GETs per read round
	scanRound int // 50-entry scans per scan round
}

var embedDefault = embedSpec{records: 200_000, valueSize: 1024, readRound: 20_000, scanRound: 150}

// embedRig is one store under test and the single client's checking
// state.
type embedRig struct {
	dir     string
	db      *fcae.DB
	events  *storeEvents
	cl      *client
	streams *embedStreams
	openMs  float64
}

func (r *embedRig) close() {
	if r == nil {
		return
	}
	if r.db != nil {
		_ = r.db.Close()
		r.db = nil
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// setupEmbed is what embed-store does before its clock starts: derive
// the op streams from the seed and open a fresh store.
func setupEmbed(seed int64, spec embedSpec, workDir string, codec *valueCodec, tr *tracer) (*embedRig, time.Duration, error) {
	start := time.Now()
	rig := &embedRig{streams: newEmbedStreams(seed, spec), events: newStoreEvents(tr)}
	var err error
	if rig.dir, err = os.MkdirTemp(workDir, wlEmbedStore+"-"); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	rig.db, err = fcae.Open(rig.dir, fcae.Options{EventListener: rig.events})
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	rig.openMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	rig.cl = newClient(0, 1, spec.records, spec.valueSize, codec, 0)
	rig.cl.expectScan = rig.streams.expectScan
	return rig, time.Since(start), nil
}

// embedStreams derives the three phases' ops from the seed: the fill, and
// reads and scans that only ask for ids the fill wrote.
type embedStreams struct {
	fill    []op
	written []uint64 // distinct ids the fill writes, ascending
	// liveFrom[id] counts written ids >= id, so a scan's result count is
	// known in advance.
	liveFrom []uint32
	rng      *rand.Rand
}

func newEmbedStreams(seed int64, spec embedSpec) *embedStreams {
	s := &embedStreams{
		fill: opStream(seed, 0, 1, 0, int(spec.records), mix{put: 1}, distUniform, spec.records),
		rng:  rand.New(rand.NewSource(streamSeed(seed, 0, 1))),
	}
	s.liveFrom = make([]uint32, spec.records+1)
	for _, o := range s.fill {
		s.liveFrom[o.id] = 1
	}
	for id := int(spec.records) - 1; id >= 0; id-- {
		if s.liveFrom[id] == 1 {
			s.written = append(s.written, uint64(id))
		}
		s.liveFrom[id] += s.liveFrom[id+1]
	}
	for i, j := 0, len(s.written)-1; i < j; i, j = i+1, j-1 {
		s.written[i], s.written[j] = s.written[j], s.written[i]
	}
	return s
}

func (s *embedStreams) next(kind opKind, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind, s.written[s.rng.Intn(len(s.written))]}
	}
	return ops
}

func (s *embedStreams) expectScan(id uint64) int {
	return min(scanLen, int(s.liveFrom[id]))
}

// embedFills is how many fresh stores a run fills. The fill is one fixed
// piece of work that cannot be cut into rounds, so it is done twice and
// the rates come from the better fill (see typical); reads and scans then
// run on the second store.
const embedFills = 2

// fillStore runs the fill phase and returns its tally, the wall time of
// the PUTs alone, and the wall time of the final drain.
func fillStore(rig *embedRig, tg target, buf *spanBuf) (t *tally, puts, drain time.Duration, err error) {
	t = &tally{}
	start := time.Now()
	rig.cl.run(tg, rig.streams.fill, buf, 1, t)
	puts = time.Since(start)
	if err := rig.db.WaitIdle(); err != nil {
		return nil, 0, 0, fmt.Errorf("fill drain: %w", err)
	}
	return t, puts, time.Since(start) - puts, nil
}

// runEmbed measures embed-store: open fresh stores (setup_s is the
// median), fill two of them, then alternate read and scan rounds on the
// second for what is left of `seconds`. Traced, the fill is half size, the
// first fill is the untraced side of the tracing-overhead comparison, the
// second records a span per PUT, reads and scans have every store call
// timed, and the layer probes follow.
func runEmbed(spec embedSpec, cfg runConfig) (*measured, error) {
	m := newMeasured()
	codec := newValueCodec(cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		spec.records /= 2 // a quarter-size fill leaves too shallow a tree to show what scans pay
	}

	var rig *embedRig
	defer func() { rig.close() }()
	fresh := func() (time.Duration, error) {
		if rig != nil {
			rig.close()
		}
		var took time.Duration
		var err error
		rig, took, err = setupEmbed(cfg.seed, spec, cfg.workDir, codec, tr)
		return took, err
	}
	setup, err := repeatSetup(cfg, fresh)
	if err != nil {
		return nil, err
	}
	m.set("setup_s", setup)
	m.set("lsm.open_ms", rig.openMs)

	proc0 := readProc()
	all := &tally{}
	times := &layerTimes{}
	var tg target
	var buf *spanBuf
	var fillOps, fillMB, writeAmp []float64
	var fillWall time.Duration
	for i := 0; i < embedFills; i++ {
		if i > 0 {
			if _, err := fresh(); err != nil {
				return nil, err
			}
		}
		tg = storeTarget{rig.db}
		if cfg.trace && i == embedFills-1 {
			buf = tr.buffer()
			tg = &directTarget{db: rig.db, times: times, buf: buf}
		}
		snap0 := takeSnapshot(rig.db, rig.events)
		fill, puts, drain, err := fillStore(rig, tg, buf)
		if err != nil {
			return nil, err
		}
		all.merge(fill)
		fillWall += puts + drain
		fillOps = append(fillOps, float64(fill.ops)/puts.Seconds())
		fillMB = append(fillMB, float64(fill.userBytes)/1e6/(puts+drain).Seconds())
		st := rig.db.Stats()
		writeAmp = append(writeAmp, ratio(float64(st.FlushBytes+st.CompactionWrite), float64(fill.userBytes)))
		m.set("lsm.drain_s", drain.Seconds())
		counterMetrics(m, snap0, takeSnapshot(rig.db, rig.events), puts+drain)
	}
	m.set("ops_per_s", typical(fillOps, true))
	m.set("mb_per_s", typical(fillMB, true))
	m.set("write_amp", median(writeAmp))
	if cfg.trace {
		m.set("bench.trace_overhead_pct", ratio(fillOps[0]-fillOps[embedFills-1], fillOps[0])*100)
	}

	// Reads and scans on the settled tree, in alternating rounds.
	budget := time.Duration(cfg.seconds*float64(time.Second)) - fillWall
	if cfg.trace {
		budget = time.Duration(cfg.seconds * float64(time.Second) / 5)
	}
	var stats roundStats
	reqBase := uint64(len(rig.streams.fill)) + 1
	for spent := time.Duration(0); spent < budget || len(stats.opsPerS) == 0; {
		for _, ops := range [][]op{rig.streams.next(opGet, spec.readRound), rig.streams.next(opScan, spec.scanRound)} {
			t := &tally{}
			start := time.Now()
			rig.cl.run(tg, ops, buf, reqBase, t)
			wall := time.Since(start)
			stats.add(t, wall)
			all.merge(t)
			reqBase += uint64(len(ops))
			spent += wall
		}
	}
	m.set("op_p50_us", typical(stats.p50[classRead], false))
	m.set("op2_p50_us", typical(stats.p50[classScan], false))
	clientMetrics(m, all)
	if cfg.trace {
		layerMetrics(m, times)
	}
	shapeMetrics(m, rig.db)
	procMetrics(m, proc0, readProc(), all.ops)
	bgErrors := rig.events.totals().bgErrors
	if err := rig.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	rig.db = nil

	if err := verifyReopened(m, rig.dir, []*client{rig.cl}, spec.valueSize); err != nil {
		return nil, err
	}
	m.attempted += all.ops
	m.failed += all.failed + bgErrors
	if all.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %v\n", wlEmbedStore, all.firstErr)
	}
	return m, finishTrace(m, tr, codec, spec.valueSize, cfg, wlEmbedStore)
}
