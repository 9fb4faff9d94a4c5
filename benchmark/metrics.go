package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"fcae"
)

// snapshot is the program's exported counters at one instant: two of them
// bracket the measured interval.
type snapshot struct {
	met  fcae.Metrics
	ev   eventTotals
	disp fcae.DispatchStats
}

func takeSnapshot(db *fcae.DB, ev *storeEvents) snapshot {
	return snapshot{met: db.Metrics(), ev: ev.totals(), disp: db.DispatchStats()}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the counters between two snapshots into the
// per-layer count metrics: what each layer did during `wall`.
func counterMetrics(m *measured, a, b snapshot, wall time.Duration) {
	d := func(name string) float64 { return float64(b.met.Counters[name] - a.met.Counters[name]) }
	ev := b.ev.sub(a.ev)
	wallNanos := float64(wall.Nanoseconds())

	shed := d("server_busy_queue") + d("server_busy_stall")
	m.set("server.group_fanin", ratio(d("server_grouped_writes"), d("server_group_commits")))
	m.set("server.busy_shed_ratio", ratio(shed, d("server_op_put")+d("server_op_write")+d("server_op_delete")))
	m.set("server.bytes_per_op", ratio(d("server_request_bytes")+d("server_response_bytes"), d("server_requests")))

	m.set("lsm.group_fanin", ratio(d("grouped_writes"), d("group_commits")))
	m.set("lsm.stall_share", ratio(d("stall_nanos"), wallNanos))
	m.set("lsm.stall_count", d("stall_count"))
	m.set("lsm.flush_count", d("flush_count"))
	m.set("lsm.flush_mb_per_s", ratio(d("flush_bytes")/1e6, float64(ev.flushNanos)/1e9))

	m.set("compaction.count", d("compaction_count"))
	m.set("compaction.trivial_moves", d("compaction_trivial"))
	m.set("compaction.read_mb", d("compaction_read_bytes")/1e6)
	m.set("compaction.write_mb", d("compaction_write_bytes")/1e6)
	m.set("compaction.busy_share", ratio(float64(ev.compactNanos), wallNanos))
	m.set("compaction.merge_share", ratio(float64(ev.mergeNanos), float64(ev.compactNanos)))
	m.set("manifest.apply_ms", ratio(float64(ev.manifestNanos)/1e6, float64(ev.compactions)))

	m.set("dispatch.device_jobs", float64(b.disp.DeviceJobs-a.disp.DeviceJobs))
	m.set("dispatch.cpu_jobs", float64(b.disp.CPUJobs-a.disp.CPUJobs))
	m.set("dispatch.fallbacks", float64(fallbacks(b.disp)-fallbacks(a.disp)))
	m.set("dispatch.retries", float64(b.disp.Retries-a.disp.Retries))
}

func fallbacks(s fcae.DispatchStats) int64 {
	return s.FallbackFanIn + s.FallbackBudget + s.FallbackArena + s.FallbackSaturated + s.FallbackFault
}

// clientMetrics reports the load generator's own samples by class, tails
// included. They are per-layer metrics because a tail beyond p99 spreads
// too much from run to run to carry a bound.
func clientMetrics(m *measured, t *tally) {
	for c, name := range classNames {
		if len(t.lat[c]) == 0 {
			continue
		}
		s := t.lat[c].summarize()
		m.set("client."+name+"_p50_us", s.P50)
		m.set("client."+name+"_p99_us", s.P99)
		m.set("client."+name+"_p999_us", s.P999)
	}
	m.set("client.max_us", float64(t.maxNanos)/1e3)
	m.set("client.busy_retries", float64(t.busyRetries))
}

// shapeMetrics reports the tree and cache state at the end of the run.
func shapeMetrics(m *measured, db *fcae.DB) {
	g := db.Metrics().Gauges
	m.set("lsm.block_cache_hit_ratio", g["block_cache_hit_ratio"])
	m.set("lsm.table_cache_hit_ratio", g["table_cache_hit_ratio"])
	tables, levels := 0, 0
	for _, n := range db.LevelFiles() {
		tables += n
		if n > 0 {
			levels++
		}
	}
	m.set("lsm.tables_live", float64(tables))
	m.set("lsm.levels_used", float64(levels))
}

func mergeLayerTimes(parts []*layerTimes) *layerTimes {
	out := &layerTimes{}
	for _, p := range parts {
		out.putNanos += p.putNanos
		out.puts += p.puts
		out.getNanos += p.getNanos
		out.gets += p.gets
		out.nextNanos += p.nextNanos
		out.nexts += p.nexts
		out.closeNanos += p.closeNanos
		out.closes += p.closes
		out.openSamples = append(out.openSamples, p.openSamples...)
		out.seekSamples = append(out.seekSamples, p.seekSamples...)
	}
	return out
}

// layerMetrics reports the separately timed store calls of a direct
// target. Open and seek are medians, to sit beside a scan's median; the
// rest are means over many short calls.
func layerMetrics(m *measured, lt *layerTimes) {
	m.set("lsm.put_ns", ratio(float64(lt.putNanos), float64(lt.puts)))
	m.set("lsm.get_ns", ratio(float64(lt.getNanos), float64(lt.gets)))
	m.set("lsm.iter_open_us", lt.openSamples.summarize().P50)
	m.set("lsm.iter_seek_us", lt.seekSamples.summarize().P50)
	m.set("lsm.iter_next_ns", ratio(float64(lt.nextNanos), float64(lt.nexts)))
	m.set("lsm.iter_close_us", ratio(float64(lt.closeNanos)/1e3, float64(lt.closes)))
}

// procSample is the process's resource use so far.
type procSample struct {
	cpu     time.Duration
	gcPause time.Duration
	mallocs uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	var ms runtime.MemStats
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a failure leaves zeros, which read as "not measured"
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause: time.Duration(ms.PauseTotalNs),
		mallocs: ms.Mallocs,
	}
}

// procMetrics reports what the process spent between two samples, and its
// peak resident set. The run is one process per workload, so the peak is
// the workload's.
func procMetrics(m *measured, a, b procSample, ops int64) {
	m.set("proc.cpu_s", (b.cpu - a.cpu).Seconds())
	m.set("proc.gc_pause_ms", float64((b.gcPause-a.gcPause).Nanoseconds())/1e6)
	m.set("proc.allocs_per_op", ratio(float64(b.mallocs-a.mallocs), float64(ops)))
	m.set("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(blob, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
