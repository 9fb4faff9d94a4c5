package lsmsim

import (
	"time"

	"fcae/internal/model"
	"fcae/internal/workload"
)

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
// 16 B keys and 1 KiB values, then 20 M operations) and returns its
// throughput in thousands of ops per second.
func RunYCSB(cfg Config, w workload.Workload, loadBytes int64, opCount int64) (kopsPerSec float64) {
	cfg = cfg.withDefaults()
	s := newState(cfg)
	s.preload(loadBytes)

	// Skewed keys keep the reads' working set in the block cache; the latest
	// distribution's more so than the zipfian's.
	hitProb := 0.80
	if w.Latest {
		hitProb = 0.95
	}

	// Per-op expected cost of the read-side work (reads, scans, and the
	// read half of RMW); writes go through the usual write path.
	read := s.readCost(hitProb)
	scan := s.readCost(hitProb) + workload.ScanLength*time.Microsecond

	s.total = opCount
	s.remaining = opCount
	s.res.Cfg = cfg

	// The client thread interleaves reads and writes; model the read-side
	// time as a per-op surcharge on the writer loop.
	s.extraPerOp = time.Duration(w.Read*float64(read) + w.Scan*float64(scan) + w.RMW*float64(read))
	s.writeFrac = w.Update + w.Insert + w.RMW

	s.writerStep()
	s.sim.Run()

	if s.sim.Now() == 0 {
		return 0
	}
	return float64(opCount) / s.sim.Now().Seconds() / 1e3
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
