package lsm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/obs"
)

// recordingListener appends every event, in delivery order, to one slice.
type recordingListener struct {
	mu     sync.Mutex
	events []any
}

func (r *recordingListener) record(e any) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recordingListener) snapshot() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]any(nil), r.events...)
}

func (r *recordingListener) FlushBegin(e obs.FlushBeginEvent)           { r.record(e) }
func (r *recordingListener) FlushEnd(e obs.FlushEndEvent)               { r.record(e) }
func (r *recordingListener) CompactionBegin(e obs.CompactionBeginEvent) { r.record(e) }
func (r *recordingListener) CompactionEnd(e obs.CompactionEndEvent)     { r.record(e) }
func (r *recordingListener) WriteStallBegin(e obs.WriteStallBeginEvent) { r.record(e) }
func (r *recordingListener) WriteStallEnd(e obs.WriteStallEndEvent)     { r.record(e) }
func (r *recordingListener) TableCreated(e obs.TableCreatedEvent)       { r.record(e) }
func (r *recordingListener) TableDeleted(e obs.TableDeletedEvent)       { r.record(e) }
func (r *recordingListener) BackgroundError(e obs.BackgroundErrorEvent) { r.record(e) }

// fillForCompactions writes enough shadowing data to force flushes and at
// least one real merge compaction under smallOpts.
func fillForCompactions(t *testing.T, db *DB) {
	t.Helper()
	value := bytes.Repeat([]byte("v"), 400)
	for round := 0; round < 6; round++ {
		for i := 0; i < 200; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestEventOrdering checks the pairing invariants of the event stream:
// every Begin is matched by exactly one later End with the same job id, and
// no job ends before it begins.
func TestEventOrdering(t *testing.T) {
	rec := &recordingListener{}
	opts := smallOpts()
	opts.EventListener = rec
	db := openTest(t, opts)
	fillForCompactions(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	events := rec.snapshot()
	flushBegun := make(map[uint64]bool)
	compactBegun := make(map[uint64]bool)
	flushEnded := make(map[uint64]bool)
	compactEnded := make(map[uint64]bool)
	stallDepth := 0
	for i, e := range events {
		switch e := e.(type) {
		case obs.FlushBeginEvent:
			if flushBegun[e.JobID] {
				t.Fatalf("event %d: duplicate FlushBegin for job %d", i, e.JobID)
			}
			flushBegun[e.JobID] = true
		case obs.FlushEndEvent:
			if !flushBegun[e.JobID] {
				t.Fatalf("event %d: FlushEnd for job %d without FlushBegin", i, e.JobID)
			}
			if flushEnded[e.JobID] {
				t.Fatalf("event %d: duplicate FlushEnd for job %d", i, e.JobID)
			}
			flushEnded[e.JobID] = true
			if e.Err != nil {
				t.Fatalf("flush job %d failed: %v", e.JobID, e.Err)
			}
		case obs.CompactionBeginEvent:
			if compactBegun[e.JobID] {
				t.Fatalf("event %d: duplicate CompactionBegin for job %d", i, e.JobID)
			}
			compactBegun[e.JobID] = true
			if len(e.Inputs) == 0 {
				t.Fatalf("event %d: CompactionBegin job %d has no inputs", i, e.JobID)
			}
		case obs.CompactionEndEvent:
			if !compactBegun[e.JobID] {
				t.Fatalf("event %d: CompactionEnd for job %d without CompactionBegin", i, e.JobID)
			}
			if compactEnded[e.JobID] {
				t.Fatalf("event %d: duplicate CompactionEnd for job %d", i, e.JobID)
			}
			compactEnded[e.JobID] = true
			if e.Err != nil {
				t.Fatalf("compaction job %d failed: %v", e.JobID, e.Err)
			}
			if !e.TrivialMove {
				if e.Executor == "" {
					t.Fatalf("merge job %d has empty Executor", e.JobID)
				}
				if e.Trace == nil || len(e.Trace.Spans()) == 0 {
					t.Fatalf("merge job %d has no trace spans", e.JobID)
				}
			}
		case obs.WriteStallBeginEvent:
			stallDepth++
		case obs.WriteStallEndEvent:
			stallDepth--
			if stallDepth < 0 {
				t.Fatalf("event %d: WriteStallEnd without matching Begin", i)
			}
		case obs.BackgroundErrorEvent:
			t.Fatalf("event %d: unexpected background error: %v (%s)", i, e.Err, e.Op)
		}
	}
	if stallDepth != 0 {
		t.Fatalf("%d WriteStallBegin events left unmatched", stallDepth)
	}
	for id := range flushBegun {
		if !flushEnded[id] {
			t.Fatalf("flush job %d never ended", id)
		}
	}
	for id := range compactBegun {
		if !compactEnded[id] {
			t.Fatalf("compaction job %d never ended", id)
		}
	}
	if len(flushBegun) == 0 {
		t.Fatal("no flush events recorded")
	}
	if len(compactBegun) == 0 {
		t.Fatal("no compaction events recorded")
	}
}

// TestCompactionPartsCounter pins how a merge's cut shows: every merge's
// CompactionEnd carries its Stats.Parts (a trivial move none),
// compaction_parts sums them and PropertyString prints the sum. Under
// smallOpts' 32 KiB tables an L0 merge of incompressible values reads
// several tables' worth, so it is cut.
func TestCompactionPartsCounter(t *testing.T) {
	rec := &recordingListener{}
	opts := smallOpts()
	opts.EventListener = rec
	db := openTest(t, opts)
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, 400)
	for round := 0; round < 4; round++ {
		for i := 0; i < 200; i++ {
			rng.Read(value)
			if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactLevel(0); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	counted := db.Metrics().Counters["compaction_parts"]
	props := db.PropertyString()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var parts, split int64
	for _, e := range rec.snapshot() {
		e, ok := e.(obs.CompactionEndEvent)
		if !ok {
			continue
		}
		if e.TrivialMove != (e.Parts == 0) {
			t.Errorf("job %d (trivial move %v) in %d parts", e.JobID, e.TrivialMove, e.Parts)
		}
		parts += int64(e.Parts)
		if e.Parts > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no merge was cut into parts")
	}
	if counted != parts {
		t.Errorf("compaction_parts %d, events sum to %d", counted, parts)
	}
	if want := fmt.Sprintf("merged in %d key-range parts", parts); !strings.Contains(props, want) {
		t.Errorf("PropertyString lacks %q:\n%s", want, props)
	}
}

// panicker panics on its first FlushBegin, then records what follows.
type panicker struct {
	recordingListener
	armed bool
}

func (p *panicker) FlushBegin(e obs.FlushBeginEvent) {
	p.mu.Lock()
	fire := !p.armed
	p.armed = true
	p.mu.Unlock()
	if fire {
		panic("listener bug")
	}
	p.record(e)
}

// TestListenerPanicRecovered checks that a panicking listener is converted
// into a BackgroundError event and that the store keeps working.
func TestListenerPanicRecovered(t *testing.T) {
	p := &panicker{}
	opts := smallOpts()
	opts.EventListener = p
	db := openTest(t, opts)

	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush after listener panic: %v", err)
	}
	// The store survives: another write + flush round-trips.
	if err := db.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get after panic = %q, %v", v, err)
	}

	var bg *obs.BackgroundErrorEvent
	for _, e := range p.snapshot() {
		if e, ok := e.(obs.BackgroundErrorEvent); ok {
			bg = &e
			break
		}
	}
	if bg == nil {
		t.Fatal("no BackgroundError event after listener panic")
	}
	if bg.Op != "listener" {
		t.Fatalf("BackgroundError.Op = %q, want \"listener\"", bg.Op)
	}
	if !errors.Is(bg.Err, obs.ErrListenerPanic) {
		t.Fatalf("BackgroundError.Err = %v, want ErrListenerPanic", bg.Err)
	}
}

// TestMetricsConcurrent hammers DB.Metrics and DB.Stats against concurrent
// writers; run with -race to check the snapshot path takes no shortcuts.
func TestMetricsConcurrent(t *testing.T) {
	opts := smallOpts()
	opts.EventListener = obs.NoopListener{}
	db := openTest(t, opts)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			value := bytes.Repeat([]byte("x"), 256)
			for i := 0; i < 300; i++ {
				if err := db.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), value); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := db.Metrics()
				if m.Counters == nil || m.Gauges == nil || m.Histograms == nil {
					t.Error("Metrics snapshot missing a section")
					return
				}
				_ = db.Stats()
			}
		}()
	}
	wg.Wait()

	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if got := m.Counters["writes"]; got != 4*300 {
		t.Fatalf("writes counter = %d, want %d", got, 4*300)
	}
}

// TestTraceMatchesStats is the acceptance check: run the engine executor
// with a TraceWriter (the dbbench -trace path), then verify that the
// per-job kernel and transfer nanoseconds in the JSONL sum to the aggregate
// Stats, and that the metrics registry agrees with Stats counter for
// counter.
func TestTraceMatchesStats(t *testing.T) {
	exec, err := core.NewExecutor(core.MultiInputConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	opts := smallOpts()
	opts.DispatchConfig.Devices = []compaction.Executor{exec}
	opts.EventListener = tw
	db := openTest(t, opts)

	fillForCompactions(t, db)
	if err := tw.Err(); err != nil {
		t.Fatalf("trace writer: %v", err)
	}
	st := db.Stats()
	m := db.Metrics()

	var recs []obs.TraceRecord
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r obs.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != st.Compactions+st.TrivialMoves {
		t.Fatalf("trace has %d records, stats say %d compactions + %d trivial moves",
			len(recs), st.Compactions, st.TrivialMoves)
	}

	var kernel, transfer, read, written int64
	var hw int
	for _, r := range recs {
		kernel += r.KernelNanos
		transfer += r.TransferNanos
		read += r.BytesRead
		written += r.BytesWritten
		if r.Executor == exec.Name() && !r.TrivialMove && !r.Fallback {
			hw++
		}
		if r.Error != "" {
			t.Fatalf("job %d recorded error %q", r.Job, r.Error)
		}
	}
	if kernel != st.KernelTime.Nanoseconds() {
		t.Fatalf("trace kernel sum %d != Stats.KernelTime %d", kernel, st.KernelTime.Nanoseconds())
	}
	if transfer != st.TransferTime.Nanoseconds() {
		t.Fatalf("trace transfer sum %d != Stats.TransferTime %d", transfer, st.TransferTime.Nanoseconds())
	}
	if read != st.CompactionRead || written != st.CompactionWrite {
		t.Fatalf("trace io (%d read, %d written) != stats (%d, %d)",
			read, written, st.CompactionRead, st.CompactionWrite)
	}
	if int64(hw) != st.HWCompactions {
		t.Fatalf("trace counts %d engine jobs, stats say %d", hw, st.HWCompactions)
	}
	if st.HWCompactions == 0 {
		t.Fatal("no engine compactions ran; test did not exercise the FCAE path")
	}

	// The registry and the flat Stats struct are fed by the same code
	// paths; they must agree exactly once the store is idle.
	counters := map[string]int64{
		"writes":                    st.Writes,
		"flush_count":               st.Flushes,
		"flush_bytes":               st.FlushBytes,
		"compaction_count":          st.Compactions,
		"compaction_hw":             st.HWCompactions,
		"compaction_sw_fallback":    st.SWFallbacks,
		"compaction_trivial":        st.TrivialMoves,
		"compaction_read_bytes":     st.CompactionRead,
		"compaction_write_bytes":    st.CompactionWrite,
		"compaction_kernel_nanos":   st.KernelTime.Nanoseconds(),
		"compaction_transfer_nanos": st.TransferTime.Nanoseconds(),
	}
	for name, want := range counters {
		if got := m.Counters[name]; got != want {
			t.Errorf("metric %s = %d, Stats says %d", name, got, want)
		}
	}
	if got := m.Histograms["compaction_wall_nanos"].Count; got != st.Compactions {
		t.Errorf("compaction_wall_nanos count = %d, want %d", got, st.Compactions)
	}
	if got := m.Histograms["flush_wall_nanos"].Count; got != st.Flushes {
		t.Errorf("flush_wall_nanos count = %d, want %d", got, st.Flushes)
	}
}
