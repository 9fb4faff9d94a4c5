package lsmsim

import (
	"time"

	"fcae/internal/model"
)

// YCSB workload mixes (paper Table IX). Fractions sum to 1.
type YCSBWorkload struct {
	Name   string
	Read   float64
	Update float64 // update = write of an existing key
	Insert float64
	Scan   float64
	RMW    float64 // read-modify-write
	// Distribution drives the block-cache hit probability of reads.
	Distribution string // "zipfian", "latest", "uniform"
}

// The six workloads of Table IX plus the load phase.
var (
	WorkloadLoad = YCSBWorkload{Name: "Load", Insert: 1.0, Distribution: "zipfian"}
	WorkloadA    = YCSBWorkload{Name: "A", Read: 0.5, Update: 0.5, Distribution: "zipfian"}
	WorkloadB    = YCSBWorkload{Name: "B", Read: 0.95, Update: 0.05, Distribution: "zipfian"}
	WorkloadC    = YCSBWorkload{Name: "C", Read: 1.0, Distribution: "zipfian"}
	WorkloadD    = YCSBWorkload{Name: "D", Read: 0.95, Insert: 0.05, Distribution: "latest"}
	WorkloadE    = YCSBWorkload{Name: "E", Scan: 0.95, Insert: 0.05, Distribution: "zipfian"}
	WorkloadF    = YCSBWorkload{Name: "F", Read: 0.5, RMW: 0.5, Distribution: "zipfian"}
)

// YCSBWorkloads lists the paper's evaluation order.
var YCSBWorkloads = []YCSBWorkload{WorkloadLoad, WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF}

// cacheHitProb maps request distributions to block-cache hit rates; the
// skewed distributions keep their working set resident.
func cacheHitProb(dist string) float64 {
	switch dist {
	case "latest":
		return 0.95
	case "zipfian":
		return 0.80
	default:
		return 0.30
	}
}

// YCSBResult reports one simulated workload run.
type YCSBResult struct {
	Workload   YCSBWorkload
	Backend    Backend
	Ops        int64
	Elapsed    time.Duration
	KOpsPerSec float64
	WriteFrac  float64
}

const scanLength = 50 // YCSB default scan length

// readCost models one point read against the current tree shape.
func (s *state) readCost(hitProb float64) time.Duration {
	probes := 1 + s.tree[0].Files // memtable, every L0 file
	for _, ls := range s.tree[1:] {
		if ls.Bytes > 0 {
			probes++
		}
	}
	probe := time.Duration(probes) * model.ReadPerLevelProbe
	// Expected block fetch cost.
	miss := (1 - hitProb) * float64(model.ReadDiskSeek)
	hit := hitProb * float64(model.ReadMemHit)
	return probe + time.Duration(miss+hit)
}

// RunYCSB simulates one YCSB workload of opCount operations against a
// store pre-loaded with loadBytes of data (paper §VII-D: 20 M records of
// 16 B keys and 1 KiB values, then 20 M operations).
func RunYCSB(cfg Config, w YCSBWorkload, loadBytes int64, opCount int64) YCSBResult {
	cfg = cfg.withDefaults()
	s := newState(cfg)
	s.preload(loadBytes)

	writeFrac := w.Update + w.Insert + w.RMW
	hitProb := cacheHitProb(w.Distribution)

	// Per-op expected cost of the read-side work (reads, scans, and the
	// read half of RMW); writes go through the usual write path.
	read := s.readCost(hitProb)
	scan := s.readCost(hitProb) + scanLength*time.Microsecond

	s.total = opCount
	s.remaining = opCount
	s.res.Cfg = cfg

	// The client thread interleaves reads and writes; model the read-side
	// time as a per-op surcharge on the writer loop.
	s.extraPerOp = time.Duration(w.Read*float64(read) + w.Scan*float64(scan) + w.RMW*float64(read))
	s.writeFrac = writeFrac

	s.writerStep()
	s.sim.Run()

	res := YCSBResult{
		Workload:  w,
		Backend:   cfg.Backend,
		Ops:       opCount,
		Elapsed:   s.sim.Now(),
		WriteFrac: writeFrac,
	}
	if res.Elapsed > 0 {
		res.KOpsPerSec = float64(opCount) / res.Elapsed.Seconds() / 1e3
	}
	return res
}

// preload fills the tree shape with loadBytes of existing data, bottom
// level first, so reads probe a realistic number of levels.
func (s *state) preload(loadBytes int64) {
	disk := uint64(float64(loadBytes) * s.cfg.DiskCompression)
	last := len(s.tree) - 1
	for level := 1; level <= last && disk > 0; level++ {
		take := disk
		if level < last {
			take = min(take, s.policy.MaxBytes(level))
		}
		s.tree[level].Bytes += take
		disk -= take
	}
}
