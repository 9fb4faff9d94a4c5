package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fcae/internal/bloom"
	"fcae/internal/cache"
	"fcae/internal/compaction"
	"fcae/internal/crc"
	"fcae/internal/dispatch"
	"fcae/internal/keys"
	"fcae/internal/memtable"
	"fcae/internal/obs"
	"fcae/internal/server"
	"fcae/internal/snappy"
	"fcae/internal/sstable"
	"fcae/internal/wal"
)

// probeTime is how long each layer probe loops in a full run. A probe
// times one layer's public functions on records shaped like the
// workload's, with nothing else running, so a change to that layer shows
// here first and in the end-to-end metric the README maps it to second.
const probeTime = 150 * time.Millisecond

// timeLoop calls fn with i = 0, 1, 2, ... until d has passed and returns
// the mean nanoseconds per call. The clock is read once per 64 calls.
func timeLoop(d time.Duration, fn func(i int)) float64 {
	start := time.Now()
	n := 0
	for {
		for j := 0; j < 64; j++ {
			fn(n)
			n++
		}
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

func walChecksum(t byte, payload []byte) uint32 {
	return crc.Extend(crc.Value([]byte{t}), payload)
}

// runProbes runs every layer probe and records its metrics. A probe that
// cannot run (no scratch file, say) reports to stderr and leaves its
// metrics at 0; probes never fail the run.
func runProbes(m *measured, codec *valueCodec, valueSize int, cfg runConfig) {
	workDir, d := cfg.workDir, cfg.probeTime
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"wal", func() error { return probeWAL(m, codec, valueSize, workDir, d) }},
		{"memtable", func() error { probeMemtable(m, codec, valueSize, d); return nil }},
		{"sstable", func() error { return probeSSTable(m, codec, valueSize, d) }},
		{"snappy", func() error { return probeSnappy(m, codec, valueSize, d) }},
		{"dispatch", func() error { return probeDispatch(m, d) }},
	} {
		if err := p.run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s probe: %v\n", p.name, err)
		}
	}
}

// probeEntry builds the i-th probe entry: its key and a checked value.
func probeEntry(codec *valueCodec, i, valueSize int, key, val []byte) ([]byte, []byte) {
	return appendKey(key[:0], uint64(i)), codec.encode(val[:0], uint64(i), 1, valueSize)
}

// probeWAL appends records of the workload's size to a log file the way
// the store does (one write per record, no fsync), then syncs, then reads
// the log back.
func probeWAL(m *measured, codec *valueCodec, valueSize int, workDir string, d time.Duration) error {
	path := filepath.Join(workDir, "probe.wal")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer func() { _ = f.Close() }() // a scratch file, removed next
	w := wal.NewWriter(f, walChecksum)
	var key, val, rec []byte
	var appendErr error
	m.set("wal.append_ns", timeLoop(d, func(i int) {
		key, val = probeEntry(codec, i, valueSize, key, val)
		rec = append(append(rec[:0], key...), val...)
		if err := w.Append(rec); err != nil && appendErr == nil {
			appendErr = err
		}
	}))
	if appendErr != nil {
		return appendErr
	}
	var syncErr error
	m.set("wal.sync_us", timeLoopN(8, func(int) {
		// A sync of nothing is free; give each one a record to carry.
		if err := w.Append(rec); err != nil && syncErr == nil {
			syncErr = err
		}
		if err := w.Sync(); err != nil && syncErr == nil {
			syncErr = err
		}
	})/1e3)
	if syncErr != nil {
		return syncErr
	}
	size := w.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := wal.NewReader(f, walChecksum)
	start := time.Now()
	for {
		if _, err := r.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
	}
	m.set("wal.replay_mb_per_s", float64(size)/1e6/time.Since(start).Seconds())
	return nil
}

// timeLoopN calls fn exactly n times and returns mean nanoseconds per
// call, for calls too slow to loop on a timer.
func timeLoopN(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeMemtable fills a memtable to the store's 4 MiB and reads it.
func probeMemtable(m *measured, codec *valueCodec, valueSize int, d time.Duration) {
	entries := (4 << 20) / (keyLen + valueSize + 16)
	mt := memtable.New(1)
	var key, val []byte
	m.set("memtable.add_ns", timeLoopN(entries, func(i int) {
		key, val = probeEntry(codec, (i*7919)%entries, valueSize, key, val)
		mt.Add(uint64(i+1), keys.KindSet, key, val)
	}))
	m.set("memtable.get_ns", timeLoop(d, func(i int) {
		key = appendKey(key[:0], uint64((i*104729)%entries))
		mt.Get(key, keys.MaxSeq)
	}))
}

// memFile is a finished table held in memory.
type memFile []byte

func (f memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f)) {
		return 0, io.EOF
	}
	n := copy(p, f[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

// tableOpts is how a default store writes its tables.
var tableOpts = sstable.Options{Compression: sstable.SnappyCompression, FilterBitsPerKey: 10}

// buildTable writes one table of about 2 MiB of entries with even ids
// 0, 2, 4, ... so odd ids are guaranteed misses.
func buildTable(codec *valueCodec, valueSize int) (memFile, int, error) {
	entries := (2 << 20) / (keyLen + valueSize)
	var buf bytes.Buffer
	w := sstable.NewWriter(&buf, tableOpts)
	var key, val, ikey []byte
	for i := 0; i < entries; i++ {
		key, val = probeEntry(codec, 2*i, valueSize, key, val)
		ikey = keys.MakeInternal(ikey[:0], key, uint64(i+1), keys.KindSet)
		if err := w.Add(ikey, val); err != nil {
			return nil, 0, err
		}
	}
	if _, err := w.Finish(); err != nil {
		return nil, 0, err
	}
	return memFile(buf.Bytes()), entries, nil
}

// probeSSTable times the table layer on one 2 MiB table: build, open,
// point reads with a warm block cache and with none, a full iteration,
// and with them the bloom filter and the block cache on their own.
func probeSSTable(m *measured, codec *valueCodec, valueSize int, d time.Duration) error {
	var file memFile
	var entries int
	var buildErr error
	raw := 0
	buildNs := timeLoopN(3, func(int) {
		f, n, err := buildTable(codec, valueSize)
		if err != nil {
			buildErr = err
			return
		}
		file, entries, raw = f, n, n*(keyLen+8+valueSize)
	})
	if buildErr != nil {
		return buildErr
	}
	m.set("sstable.build_mb_per_s", float64(raw)/1e6/(buildNs/1e9))

	var openErr error
	m.set("sstable.open_us", timeLoop(d, func(int) {
		if _, err := sstable.NewReader(file, int64(len(file)), tableOpts, nil, 1); err != nil {
			openErr = err
		}
	})/1e3)
	if openErr != nil {
		return openErr
	}

	blocks := cache.New(8 << 20)
	warm, err := sstable.NewReader(file, int64(len(file)), tableOpts, blocks, 1)
	if err != nil {
		return err
	}
	cold, err := sstable.NewReader(file, int64(len(file)), tableOpts, nil, 1)
	if err != nil {
		return err
	}
	var key []byte
	var getErr error
	get := func(r *sstable.Reader, id int) {
		key = appendKey(key[:0], uint64(id))
		_, _, found, err := r.Get(key, keys.MaxSeq)
		if err == nil && found != (id%2 == 0) {
			err = fmt.Errorf("table get %d: found=%v", id, found)
		}
		if err != nil && getErr == nil {
			getErr = err
		}
	}
	for i := 0; i < entries; i++ { // fill the cache
		get(warm, 2*i)
	}
	m.set("sstable.get_hit_us", timeLoop(d, func(i int) { get(warm, 2*((i*7919)%entries)) })/1e3)
	m.set("sstable.get_miss_us", timeLoop(d, func(i int) { get(cold, 2*((i*7919)%entries)) })/1e3)
	if getErr != nil {
		return getErr
	}

	iterNs := timeLoopN(3, func(int) {
		it := cold.NewIterator()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if n != entries && getErr == nil {
			getErr = fmt.Errorf("table iteration saw %d entries, want %d", n, entries)
		}
	})
	if getErr != nil {
		return getErr
	}
	m.set("sstable.iter_mb_per_s", float64(len(file))/1e6/(iterNs/1e9))

	// Bloom filter over the same keys, 10 bits per key like the store's.
	userKeys := make([][]byte, entries)
	for i := range userKeys {
		userKeys[i] = appendKey(nil, uint64(2*i))
	}
	filter := bloom.New(10).Append(nil, userKeys)
	falsePositives, probes := 0, 0
	m.set("bloom.probe_ns", timeLoop(d, func(i int) {
		key = appendKey(key[:0], uint64(2*i+1)) // never added
		probes++
		if bloom.MayContain(filter, key) {
			falsePositives++
		}
	}))
	m.set("bloom.fp_ratio", ratio(float64(falsePositives), float64(probes)))

	// The block cache alone: 4 MiB of 4 KiB blocks, every lookup a hit.
	lookups := cache.New(8 << 20)
	for i := 0; i < 1024; i++ {
		lookups.Set(cache.Key{ID: 2, Offset: uint64(i) * 4096}, file[:4096])
	}
	m.set("cache.lookup_ns", timeLoop(d, func(i int) {
		lookups.Get(cache.Key{ID: 2, Offset: uint64((i*7919)%1024) * 4096})
	}))
	return nil
}

// probeSnappy compresses and decompresses a 4 KiB block of the workload's
// values.
func probeSnappy(m *measured, codec *valueCodec, valueSize int, d time.Duration) error {
	var block, val []byte
	for i := 0; len(block) < 4096; i++ {
		val = codec.encode(val[:0], uint64(i), 1, valueSize)
		block = append(block, val...)
	}
	var enc, dec []byte
	encNs := timeLoop(d, func(int) { enc = snappy.Encode(enc[:0], block) })
	var decErr error
	decNs := timeLoop(d, func(int) {
		var err error
		if dec, err = snappy.Decode(dec[:0], enc); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	if !bytes.Equal(dec, block) {
		return errors.New("snappy round trip changed the block")
	}
	m.set("snappy.encode_mb_per_s", float64(len(block))/1e6/(encNs/1e9))
	m.set("snappy.decode_mb_per_s", float64(len(block))/1e6/(decNs/1e9))
	return nil
}

// nopExecutor answers every job at once: what is left is the scheduler.
type nopExecutor struct{}

func (nopExecutor) Name() string { return "nop" }
func (nopExecutor) MaxRuns() int { return 0 }
func (nopExecutor) Compact(*compaction.Job, compaction.Env) (*compaction.Result, error) {
	return &compaction.Result{}, nil
}

// probeDispatch times Scheduler.Execute around an executor that does
// nothing.
func probeDispatch(m *measured, d time.Duration) error {
	sched, err := dispatch.New(dispatch.Config{CPU: nopExecutor{}})
	if err != nil {
		return err
	}
	defer func() { _ = sched.Close() }()
	job := &compaction.Job{}
	var execErr error
	m.set("dispatch.overhead_us", timeLoop(d, func(int) {
		if _, _, err := sched.Execute(job, nil, obs.PriorityDeep); err != nil {
			execErr = err
		}
	})/1e3)
	return execErr
}

// codecProbe runs the workload's own requests and replies through the
// frame and payload codecs with no socket in between: encode the request,
// decode it as the server does, encode the reply a correct server would
// send, decode it as the client does.
func codecProbe(m *measured, rig *wireRig, streams [][]op, d time.Duration) {
	codec := rig.clients[0].codec
	ops := streams[0]
	if len(ops) > 2000 {
		ops = ops[:2000]
	}
	var scanReply []byte // one SCAN reply, reused: 50 entries of the workload's size
	{
		var key, val []byte
		scanReply = binary.AppendUvarint(scanReply, scanLen)
		for i := 0; i < scanLen; i++ {
			key, val = probeEntry(codec, i, rig.spec.valueSize, key, val)
			scanReply = server.AppendBytes(server.AppendBytes(scanReply, key), val)
		}
	}
	var key, val, payload, frame, reply []byte
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	const maxFrame = server.DefaultMaxFrameBytes
	perOp := timeLoop(d, func(i int) {
		o := ops[i%len(ops)]
		key, val = probeEntry(codec, int(o.id), rig.spec.valueSize, key, val)
		var wireOp server.Op
		var answer []byte
		switch o.kind {
		case opGet:
			wireOp, payload, answer = server.OpGet, server.AppendGetPayload(payload[:0], key), val
		case opScan:
			wireOp, payload, answer = server.OpScan, server.AppendScanPayload(payload[:0], key, scanLen), scanReply
		default:
			wireOp, payload = server.OpPut, server.AppendPutPayload(payload[:0], key, val)
		}
		frame = server.AppendFrame(frame[:0], uint64(i), byte(wireOp), payload)
		_, _, body, _, err := server.DecodeFrame(frame, maxFrame)
		note(err)
		k, rest, err := server.ReadBytes(body)
		note(err)
		switch o.kind {
		case opScan:
			_, _, err = server.ReadUvarint(rest)
			note(err)
		case opPut, opInsert:
			// A PUT becomes a one-op batch for the group committer.
			v, _, err := server.ReadBytes(rest)
			note(err)
			var b server.Batch
			b.Put(k, v)
			note(server.DecodeWriteOps(server.AppendWritePayload(nil, &b), func(byte, []byte, []byte) error { return nil }))
		}
		reply = server.AppendFrame(reply[:0], uint64(i), byte(server.StatusOK), answer)
		_, _, body, _, err = server.DecodeFrame(reply, maxFrame)
		note(err)
		if o.kind == opScan {
			_, err = server.DecodeScanPayload(body)
			note(err)
		}
	})
	if probeErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: codec probe: %v\n", probeErr)
		return
	}
	m.set("server.codec_ns_per_op", perOp)
}
