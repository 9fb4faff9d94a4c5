package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"fcae/internal/lsm"
	"fcae/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	frame := AppendFrame(nil, 42, byte(OpPut), []byte("payload"))
	id, op, payload, rest, err := DecodeFrame(frame, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if id != 42 || Op(op) != OpPut || string(payload) != "payload" || len(rest) != 0 {
		t.Fatalf("got id=%d op=%v payload=%q rest=%d", id, Op(op), payload, len(rest))
	}
	// Two frames back to back: rest carries the second.
	frames := AppendFrame(frame, 43, byte(StatusOK), nil)
	_, _, _, rest, err = DecodeFrame(frames, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatalf("DecodeFrame first of two: %v", err)
	}
	id2, _, _, rest2, err := DecodeFrame(rest, DefaultMaxFrameBytes)
	if err != nil || id2 != 43 || len(rest2) != 0 {
		t.Fatalf("second frame: id=%d rest=%d err=%v", id2, len(rest2), err)
	}

	// ReadFrame agrees with DecodeFrame.
	rid, rop, rpayload, err := ReadFrame(bytes.NewReader(frame), DefaultMaxFrameBytes)
	if err != nil || rid != 42 || Op(rop) != OpPut || string(rpayload) != "payload" {
		t.Fatalf("ReadFrame: id=%d op=%v payload=%q err=%v", rid, Op(rop), rpayload, err)
	}
}

func TestDecodeFrameHostile(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrMalformedFrame},
		{"short header", []byte{0, 0, 1}, ErrMalformedFrame},
		{"length below prefix", []byte{0, 0, 0, 4, 1, 2, 3, 4}, ErrMalformedFrame},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 1}, ErrFrameTooLarge},
		{"truncated body", []byte{0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 1}, ErrMalformedFrame},
	}
	for _, tc := range cases {
		if _, _, _, _, err := DecodeFrame(tc.b, 1<<20); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeFrame err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// ReadFrame must reject a hostile declared length BEFORE allocating:
	// a 4 GiB claim against a tiny max errors immediately.
	hostile := []byte{0xff, 0xff, 0xff, 0xf0}
	if _, _, _, err := ReadFrame(bytes.NewReader(hostile), 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame hostile length err = %v, want ErrFrameTooLarge", err)
	}
}

func TestWriteBatchRoundTrip(t *testing.T) {
	t.Parallel()
	var b Batch
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	b.Put([]byte("k3"), []byte("v3"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	payload := AppendWritePayload(nil, &b)
	var got []string
	err := DecodeWriteOps(payload, func(kind byte, key, value []byte) error {
		got = append(got, fmt.Sprintf("%d:%s:%s", kind, key, value))
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeWriteOps: %v", err)
	}
	want := []string{"0:k1:v1", "1:k2:", "0:k3:v3"}
	if len(got) != len(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDecodeWriteOpsHostile(t *testing.T) {
	t.Parallel()
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	good := AppendWritePayload(nil, &b)

	hostile := [][]byte{
		{},                                       // missing count
		{5},                                      // count 5, no ops
		append(good[:len(good):len(good)], 0xee), // trailing garbage
		{1, 7, 1, 'k'},                           // unknown kind 7
		appendUvarint(nil, 1<<40),                // absurd count, no ops
	}
	for i, p := range hostile {
		err := DecodeWriteOps(p, func(byte, []byte, []byte) error { return nil })
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("case %d: err = %v, want ErrMalformedFrame", i, err)
		}
	}
}

func TestScanPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	payload := appendUvarint(nil, 2)
	payload = AppendBytes(payload, []byte("a"))
	payload = AppendBytes(payload, []byte("1"))
	payload = AppendBytes(payload, []byte("b"))
	payload = AppendBytes(payload, []byte("2"))
	kvs, err := DecodeScanPayload(payload)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("DecodeScanPayload: %v, %d pairs", err, len(kvs))
	}
	if string(kvs[0].Key) != "a" || string(kvs[1].Value) != "2" {
		t.Fatalf("pairs = %v", kvs)
	}
	// A count larger than the encoded pairs must error, not allocate.
	huge := appendUvarint(nil, 1<<50)
	if _, err := DecodeScanPayload(huge); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("huge count err = %v, want ErrMalformedFrame", err)
	}
}

func TestOpStatusStrings(t *testing.T) {
	t.Parallel()
	for op := OpGet; op <= OpScan; op++ {
		if op.String() == "invalid" {
			t.Errorf("Op(%d) has no String case", op)
		}
	}
	for st := StatusOK; st <= StatusErr; st++ {
		if st.String() == "invalid" {
			t.Errorf("Status(%d) has no String case", st)
		}
	}
	if Op(0).String() != "invalid" || Status(99).String() != "invalid" {
		t.Errorf("out-of-range enums must stringify as invalid")
	}
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("empty Addr must fail Validate")
	}
	if err := (Config{Addr: "x", MaxInFlight: -1}).Validate(); err == nil {
		t.Fatal("negative limit must fail Validate")
	}
	if err := (Config{Addr: "x", WriteTimeout: -time.Second}).Validate(); err == nil {
		t.Fatal("negative timeout must fail Validate")
	}
	if err := (Config{Addr: "x", MaxFrameBytes: 16}).Validate(); err == nil {
		t.Fatal("tiny MaxFrameBytes must fail Validate")
	}
	if err := (Config{Addr: "x"}).withDefaults().Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

func TestStatusOfMapping(t *testing.T) {
	t.Parallel()
	s := &Server{}
	cases := []struct {
		err  error
		want Status
	}{
		{nil, StatusOK},
		{lsm.ErrNotFound, StatusNotFound},
		{ErrServerBusy, StatusBusy},
		{ErrServerClosing, StatusClosing},
		{lsm.ErrClosed, StatusClosing},
		{fmt.Errorf("wrapped: %w", lsm.ErrClosed), StatusClosing},
		{errors.New("boom"), StatusErr},
	}
	for _, tc := range cases {
		if st, _ := s.statusOf(tc.err); st != tc.want {
			t.Errorf("statusOf(%v) = %v, want %v", tc.err, st, tc.want)
		}
	}
}

// openTestServer starts a server on ephemeral ports over a fresh store.
func openTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := Open(t.TempDir(), lsm.Options{}, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil && !errors.Is(err, lsm.ErrClosed) {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// rawConn is a minimal frame-level test client.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, s *Server) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (r *rawConn) send(id uint64, op Op, payload []byte) {
	r.t.Helper()
	if _, err := r.nc.Write(AppendFrame(nil, id, byte(op), payload)); err != nil {
		r.t.Fatalf("send frame %d: %v", id, err)
	}
}

func (r *rawConn) recv() (uint64, Status, []byte) {
	r.t.Helper()
	_ = r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	id, st, payload, err := ReadFrame(r.br, DefaultMaxFrameBytes)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	return id, Status(st), payload
}

func TestServeBasicOps(t *testing.T) {
	t.Parallel()
	s := openTestServer(t, Config{})
	rc := dialRaw(t, s)

	rc.send(1, OpPut, AppendPutPayload(nil, []byte("alpha"), []byte("1")))
	if id, st, _ := rc.recv(); id != 1 || st != StatusOK {
		t.Fatalf("put: id=%d st=%v", id, st)
	}
	rc.send(2, OpGet, AppendGetPayload(nil, []byte("alpha")))
	if id, st, v := rc.recv(); id != 2 || st != StatusOK || string(v) != "1" {
		t.Fatalf("get: id=%d st=%v v=%q", id, st, v)
	}
	rc.send(3, OpGet, AppendGetPayload(nil, []byte("missing")))
	if _, st, _ := rc.recv(); st != StatusNotFound {
		t.Fatalf("get missing: st=%v", st)
	}
	rc.send(4, OpDelete, AppendDeletePayload(nil, []byte("alpha")))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("delete: st=%v", st)
	}
	rc.send(5, OpGet, AppendGetPayload(nil, []byte("alpha")))
	if _, st, _ := rc.recv(); st != StatusNotFound {
		t.Fatalf("get deleted: st=%v", st)
	}

	var b Batch
	b.Put([]byte("s1"), []byte("x"))
	b.Put([]byte("s2"), []byte("y"))
	rc.send(6, OpWrite, AppendWritePayload(nil, &b))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("write batch: st=%v", st)
	}
	rc.send(7, OpScan, AppendScanPayload(nil, []byte("s"), 10))
	_, st, payload := rc.recv()
	if st != StatusOK {
		t.Fatalf("scan: st=%v", st)
	}
	kvs, err := DecodeScanPayload(payload)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("scan decoded %d pairs (err %v), want 2", len(kvs), err)
	}
	if string(kvs[0].Key) != "s1" || string(kvs[1].Key) != "s2" {
		t.Fatalf("scan keys = %q,%q", kvs[0].Key, kvs[1].Key)
	}
}

func TestServePipelinedById(t *testing.T) {
	t.Parallel()
	s := openTestServer(t, Config{})
	rc := dialRaw(t, s)

	// Pipeline a burst without reading between sends; responses within a
	// burst may arrive in any order but every id must come back exactly
	// once. Requests across bursts are ordered by draining responses in
	// between (handlers for one burst run concurrently, so a GET
	// pipelined behind a PUT is not guaranteed to observe it).
	const n = 64
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		rc.send(uint64(1000+i), OpPut, AppendPutPayload(nil, key, key))
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		id, st, _ := rc.recv()
		if seen[id] || id < 1000 || id >= 1000+n {
			t.Fatalf("put burst: unexpected or duplicate id %d", id)
		}
		seen[id] = true
		if st != StatusOK {
			t.Fatalf("put id=%d: st=%v", id, st)
		}
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		rc.send(uint64(2000+i), OpGet, AppendGetPayload(nil, key))
	}
	for i := 0; i < n; i++ {
		id, st, payload := rc.recv()
		if seen[id] || id < 2000 || id >= 2000+n {
			t.Fatalf("get burst: unexpected or duplicate id %d", id)
		}
		seen[id] = true
		want := fmt.Sprintf("k%03d", id-2000)
		if st != StatusOK || string(payload) != want {
			t.Fatalf("get id=%d: st=%v payload=%q want %q", id, st, payload, want)
		}
	}
	// Every response left in some socket write, and no write was empty.
	flushes, responses := s.met.flushes.Value(), s.met.requests.Value()
	if responses != 2*n || flushes < 1 || flushes > responses {
		t.Fatalf("server_response_flushes = %d for %d responses", flushes, responses)
	}
	t.Logf("%d responses in %d socket writes", responses, flushes)
}

// TestGetAllocationBudget: a request is read into a body the server keeps,
// so a warm GET allocates only its handler goroutine and the value Get
// copies out. Reading each frame into a fresh body (and its length word
// into another) made it 4.
func TestGetAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	s := openTestServer(t, Config{})
	key, val := []byte("key-0001"), bytes.Repeat([]byte("v"), 128)
	if err := s.db.Put(key, val); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, s)
	req := AppendFrame(nil, 7, byte(OpGet), AppendGetPayload(nil, key))
	want := AppendFrame(nil, 7, byte(StatusOK), val)
	resp := make([]byte, len(want))
	get := func() {
		if _, err := rc.nc.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(rc.br, resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		get()
	}
	const budget = 2
	if n := testing.AllocsPerRun(1000, get); n > budget {
		t.Fatalf("a warm GET allocates %.1f times, want <= %d", n, budget)
	}
	if !bytes.Equal(resp, want) {
		t.Fatalf("GET reply %q, want %q", resp, want)
	}
}

// TestSlowReaderIsBoundedAndDropped pipelines GETs of a 64 KiB value on a
// connection that never reads. What the server holds for that connection
// stays bounded (handlers wait for the flusher, keep their MaxInFlight
// tokens, and the reader stops admitting), the connection is dropped once
// a socket write has made no progress for WriteTimeout, another
// connection is served throughout, and Close returns with a connection
// stuck the same way.
func TestSlowReaderIsBoundedAndDropped(t *testing.T) {
	t.Parallel()
	const maxInFlight = 8
	s := openTestServer(t, Config{MaxInFlight: maxInFlight, WriteTimeout: 500 * time.Millisecond})
	good := dialRaw(t, s)
	value := bytes.Repeat([]byte("v"), 64<<10)
	good.send(1, OpPut, AppendPutPayload(nil, []byte("big"), value))
	if _, st, _ := good.recv(); st != StatusOK {
		t.Fatalf("put big: st=%v", st)
	}
	frameLen := int64(frameHeaderSize + framePrefixSize + len(value))

	// stick opens a connection that asks for 256 MiB of replies and
	// reads none of them.
	stick := func() {
		t.Helper()
		slow := dialRaw(t, s)
		_ = slow.nc.(*net.TCPConn).SetReadBuffer(4 << 10)
		var reqs []byte
		for i := 0; i < 4096; i++ {
			reqs = AppendFrame(reqs, uint64(i), byte(OpGet), AppendGetPayload(nil, []byte("big")))
		}
		go func() { _, _ = slow.nc.Write(reqs) }() // the server stops reading part-way
	}
	stick()

	// Replies generated and not yet written: the two buffers of the
	// writer (each may pass the limit by one frame), one reply per
	// running handler, and one request the reader holds while it waits
	// for a token.
	bound := 2*(maxBufferedBytes+frameLen) + (maxInFlight+1)*frameLen
	held := func() int64 { return s.met.opCount(OpGet).Value()*frameLen - s.met.responseBytes.Value() }
	// held is sampled on a goroutine of its own until the drop: a PUT below
	// can wait out the whole WriteTimeout behind the stuck handlers, so
	// sampling between PUTs may look once, before anything backed up.
	sampled := make(chan int64, 1)
	go func() {
		var maxHeld int64
		for ; s.met.connsClosed.Value() == 0; time.Sleep(100 * time.Microsecond) {
			if h := held(); h > maxHeld {
				maxHeld = h
			}
		}
		sampled <- maxHeld
	}()
	for id := uint64(2); s.met.connsClosed.Value() == 0; id++ {
		// While the stuck handlers hold every token this waits, for at
		// most WriteTimeout; it is never refused.
		good.send(id, OpPut, AppendPutPayload(nil, []byte("small"), []byte("v")))
		if _, st, _ := good.recv(); st != StatusOK {
			t.Fatalf("put beside the stuck connection: st=%v", st)
		}
	}
	maxHeld := <-sampled
	if maxHeld > bound {
		t.Fatalf("server held %d bytes of replies for a peer that does not read, bound %d", maxHeld, bound)
	}
	if maxHeld < maxBufferedBytes {
		t.Fatalf("held only %d bytes: the connection never backed up, the test measured nothing", maxHeld)
	}
	good.send(1, OpGet, AppendGetPayload(nil, []byte("small")))
	if _, st, _ := good.recv(); st != StatusOK {
		t.Fatalf("get after the drop: st=%v", st)
	}

	// Close while a second such connection is stuck: every token taken
	// and the socket accepting nothing more.
	stick()
	for last := int64(-1); ; time.Sleep(20 * time.Millisecond) {
		written := s.met.responseBytes.Value()
		if written == last && len(s.inflight) == maxInFlight {
			break
		}
		last = written
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind a connection whose peer does not read")
	}
}

func TestUnknownOpcodeAndMalformedPayload(t *testing.T) {
	t.Parallel()
	s := openTestServer(t, Config{})
	rc := dialRaw(t, s)

	rc.send(1, Op(200), nil)
	if id, st, _ := rc.recv(); id != 1 || st != StatusErr {
		t.Fatalf("unknown op: id=%d st=%v", id, st)
	}
	// Valid op, garbage payload: typed error response, connection lives.
	rc.send(2, OpGet, []byte{0xff})
	if id, st, _ := rc.recv(); id != 2 || st != StatusErr {
		t.Fatalf("malformed get: id=%d st=%v", id, st)
	}
	rc.send(3, OpPut, AppendPutPayload(nil, []byte("k"), []byte("v")))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("conn must survive malformed payloads; put st=%v", st)
	}
	if s.met.protocolErrors.Value() < 2 {
		t.Fatalf("server_protocol_errors = %d, want >= 2", s.met.protocolErrors.Value())
	}
}

// TestStallShedsWritesServesReads is the stall-injection acceptance test:
// with the store reporting a hard write stall, writes shed with
// StatusBusy (ErrServerBusy on the wire) while reads keep serving.
func TestStallShedsWritesServesReads(t *testing.T) {
	t.Parallel()
	s := openTestServer(t, Config{})
	rc := dialRaw(t, s)

	rc.send(1, OpPut, AppendPutPayload(nil, []byte("pre"), []byte("v")))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("pre-stall put: st=%v", st)
	}

	// Inject the stall exactly as the store's event stream would.
	s.stall.WriteStallBegin(obs.WriteStallBeginEvent{Reason: obs.StallL0Stop})
	if !s.stall.stalled() {
		t.Fatal("stall watcher did not arm")
	}

	rc.send(2, OpPut, AppendPutPayload(nil, []byte("shed"), []byte("v")))
	if id, st, _ := rc.recv(); id != 2 || st != StatusBusy {
		t.Fatalf("stalled put: id=%d st=%v, want StatusBusy", id, st)
	}
	var b Batch
	b.Delete([]byte("pre"))
	rc.send(3, OpWrite, AppendWritePayload(nil, &b))
	if _, st, _ := rc.recv(); st != StatusBusy {
		t.Fatalf("stalled batch write: st=%v, want StatusBusy", st)
	}
	// Reads keep serving mid-stall.
	rc.send(4, OpGet, AppendGetPayload(nil, []byte("pre")))
	if _, st, v := rc.recv(); st != StatusOK || string(v) != "v" {
		t.Fatalf("read during stall: st=%v v=%q", st, v)
	}
	rc.send(5, OpScan, AppendScanPayload(nil, nil, 5))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("scan during stall: st=%v", st)
	}
	if s.met.busyStall.Value() != 2 {
		t.Fatalf("server_busy_stall = %d, want 2", s.met.busyStall.Value())
	}

	// The soft L0 slowdown must NOT shed.
	s.stall.WriteStallEnd(obs.WriteStallEndEvent{Reason: obs.StallL0Stop})
	s.stall.WriteStallBegin(obs.WriteStallBeginEvent{Reason: obs.StallL0Slowdown})
	rc.send(6, OpPut, AppendPutPayload(nil, []byte("soft"), []byte("v")))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("put during soft slowdown: st=%v, want StatusOK", st)
	}
	s.stall.WriteStallEnd(obs.WriteStallEndEvent{Reason: obs.StallL0Slowdown})

	rc.send(7, OpPut, AppendPutPayload(nil, []byte("post"), []byte("v")))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("post-stall put: st=%v", st)
	}
}

func TestAdminPlane(t *testing.T) {
	t.Parallel()
	s := openTestServer(t, Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr().String()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Generate one request so counters move.
	rc := dialRaw(t, s)
	rc.send(1, OpPut, AppendPutPayload(nil, []byte("k"), []byte("v")))
	if _, st, _ := rc.recv(); st != StatusOK {
		t.Fatalf("put: %v", st)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var m struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if m.Counters["server_requests"] < 1 || m.Counters["server_op_put"] < 1 {
		t.Fatalf("server counters missing from /metrics: %v", m.Counters)
	}
	if _, ok := m.Gauges["server_active_conns"]; !ok {
		t.Fatalf("server_active_conns gauge missing from /metrics")
	}

	if code, body := get("/metrics?format=text"); code != http.StatusOK ||
		!bytes.Contains(body, []byte("server_requests")) {
		t.Fatalf("/metrics?format=text = %d, missing server_requests:\n%s", code, body)
	}

	code, body = get("/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	var st adminStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if st.ActiveConns < 1 {
		t.Fatalf("/stats active_conns = %d, want >= 1", st.ActiveConns)
	}
}
