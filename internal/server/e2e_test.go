package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcae/internal/lsm"
	"fcae/internal/server"
	"fcae/internal/server/client"
)

func openServer(t *testing.T, opts lsm.Options, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := server.Open(t.TempDir(), opts, cfg)
	if err != nil {
		t.Fatalf("server.Open: %v", err)
	}
	return s
}

func dialClient(t *testing.T, s *server.Server, opts client.Options) *client.Client {
	t.Helper()
	opts.Addr = s.Addr().String()
	c, err := client.Dial(opts)
	if err != nil {
		t.Fatalf("client.Dial: %v", err)
	}
	return c
}

// waitGoroutines polls until the goroutine count drops back to within
// slack of the baseline, failing the test if it never does. Leak tests
// must not run in parallel with other tests.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClientRoundTrip(t *testing.T) {
	s := openServer(t, lsm.Options{}, server.Config{})
	defer func() { _ = s.Close() }()
	c := dialClient(t, s, client.Options{})
	defer func() { _ = c.Close() }()

	if err := c.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := c.Get([]byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("nope")); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	var b server.Batch
	b.Put([]byte("k2"), []byte("v2"))
	b.Delete([]byte("k1"))
	if err := c.Write(&b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := c.Get([]byte("k1")); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("Get deleted = %v, want ErrNotFound", err)
	}
	kvs, err := c.Scan([]byte("k"), 10)
	if err != nil || len(kvs) != 1 || string(kvs[0].Key) != "k2" {
		t.Fatalf("Scan = %v, %v", kvs, err)
	}
	if err := c.Delete([]byte("k2")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
}

// TestGroupCommitCoalescing is the group-commit acceptance test: N
// concurrent pipelined writers must land in measurably fewer store
// commits than N writes, proven by the store's own counters. SyncWrites
// makes the fsync the commit cost followers pile up behind.
func TestGroupCommitCoalescing(t *testing.T) {
	s := openServer(t, lsm.Options{SyncWrites: true}, server.Config{})
	defer func() { _ = s.Close() }()
	c := dialClient(t, s, client.Options{Conns: 4, MaxPipeline: 256})
	defer func() { _ = c.Close() }()

	const (
		writers       = 32
		putsPerWriter = 20
		totalWrites   = writers * putsPerWriter
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsPerWriter; i++ {
				key := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				if err := c.Put(key, key); err != nil {
					errs <- fmt.Errorf("writer %d put %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := s.DB().Metrics()
	grouped := m.Counters["grouped_writes"]
	commits := m.Counters["group_commits"]
	if grouped != totalWrites {
		t.Fatalf("grouped_writes = %d, want %d", grouped, totalWrites)
	}
	if commits <= 0 || commits >= totalWrites/2 {
		t.Fatalf("group_commits = %d for %d writes: expected coalescing (< %d)",
			commits, totalWrites, totalWrites/2)
	}
	t.Logf("group commit: %d writes in %d commits (%.1f writes/commit)",
		grouped, commits, float64(grouped)/float64(commits))

	// Every write must be durable and readable.
	for w := 0; w < writers; w++ {
		key := []byte(fmt.Sprintf("w%02d-%03d", w, putsPerWriter-1))
		if v, err := c.Get(key); err != nil || string(v) != string(key) {
			t.Fatalf("Get %q after group commit = %q, %v", key, v, err)
		}
	}
}

// TestDrainUnderLoad closes the server while pipelined clients are
// mid-flight: in-flight requests finish or fail with a typed closing
// error, and no goroutine outlives Close.
func TestDrainUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := openServer(t, lsm.Options{}, server.Config{})
	c := dialClient(t, s, client.Options{Conns: 2, MaxPipeline: 64})

	var stop atomic.Bool
	var okOps, closedOps atomic.Int64
	var wg sync.WaitGroup
	unexpected := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := []byte(fmt.Sprintf("d%02d-%06d", w, i))
				err := c.Put(key, key)
				switch {
				case err == nil:
					okOps.Add(1)
				case errors.Is(err, server.ErrServerClosing),
					errors.Is(err, server.ErrServerBusy),
					errors.Is(err, client.ErrClientClosed),
					errors.Is(err, lsm.ErrClosed),
					errors.Is(err, io.EOF),
					isConnErr(err):
					closedOps.Add(1)
					return
				default:
					select {
					case unexpected <- fmt.Errorf("writer %d: %w", w, err):
					default:
					}
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	close(unexpected)
	for err := range unexpected {
		t.Fatalf("unexpected error during drain: %v", err)
	}
	if okOps.Load() == 0 {
		t.Fatal("no writes succeeded before drain")
	}
	t.Logf("drain: %d ok, %d rejected at shutdown", okOps.Load(), closedOps.Load())

	if err := c.Close(); err != nil {
		t.Fatalf("client Close: %v", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil && !errors.Is(err, lsm.ErrClosed) {
		t.Fatalf("second Close: %v", err)
	}
	waitGoroutines(t, baseline)
}

// isConnErr reports transport-level failures that are expected when the
// server tears the connection down mid-flight.
func isConnErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// TestStressKillConns hammers the server with pipelined clients while
// killing connections mid-flight, then verifies a clean shutdown with
// zero leaked goroutines. Run with -race.
func TestStressKillConns(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := openServer(t, lsm.Options{}, server.Config{MaxInFlight: 64})

	const clients = 6
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(client.Options{
				Addr:        s.Addr().String(),
				Conns:       2,
				MaxPipeline: 32,
				OpTimeout:   5 * time.Second,
			})
			if err != nil {
				t.Errorf("client %d dial: %v", ci, err)
				return
			}
			defer func() { _ = c.Close() }()
			var inner sync.WaitGroup
			for g := 0; g < 4; g++ {
				inner.Add(1)
				go func(g int) {
					defer inner.Done()
					for i := 0; i < 50; i++ {
						key := []byte(fmt.Sprintf("s%02d-%d-%03d", ci, g, i))
						err := c.Put(key, key)
						if err == nil {
							_, err = c.Get(key)
						}
						// Killed conns surface transport or typed
						// errors; anything is fine except a hang or a
						// data race — correctness of survivors is
						// checked below.
						_ = err
					}
				}(g)
			}
			inner.Wait()
		}(ci)
	}

	// Kill raw connections mid-flight while the clients run.
	for k := 0; k < 10; k++ {
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("kill-conn dial: %v", err)
		}
		frame := server.AppendFrame(nil, uint64(k), byte(server.OpPut),
			server.AppendPutPayload(nil, []byte("kill"), []byte("v")))
		_, _ = nc.Write(frame[:len(frame)-3]) // truncated mid-frame
		_ = nc.Close()
	}
	// And one that sends garbage.
	if nc, err := net.Dial("tcp", s.Addr().String()); err == nil {
		_, _ = nc.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad})
		_ = nc.Close()
	}

	wg.Wait()

	// Server must still be fully functional afterwards.
	c := dialClient(t, s, client.Options{})
	if err := c.Put([]byte("after"), []byte("storm")); err != nil {
		t.Fatalf("put after storm: %v", err)
	}
	if v, err := c.Get([]byte("after")); err != nil || string(v) != "storm" {
		t.Fatalf("get after storm = %q, %v", v, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	waitGoroutines(t, baseline)
}

func TestClientOpsAfterClose(t *testing.T) {
	s := openServer(t, lsm.Options{}, server.Config{})
	defer func() { _ = s.Close() }()
	c := dialClient(t, s, client.Options{})
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, client.ErrClientClosed) {
		t.Fatalf("Put after Close = %v, want ErrClientClosed", err)
	}
	if _, err := c.Get([]byte("k")); !errors.Is(err, client.ErrClientClosed) {
		t.Fatalf("Get after Close = %v, want ErrClientClosed", err)
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPipelinedPutThenGetKeepsBytes is a model check of the recycled
// request bodies: pipelined writers put values of many sizes, each read
// straight back, while other requests are read into the bodies the server
// recycles. Every GET, and the store itself afterwards, must hold the
// bytes last put, never bytes of a later request.
func TestPipelinedPutThenGetKeepsBytes(t *testing.T) {
	t.Parallel()
	s := openServer(t, lsm.Options{}, server.Config{})
	defer func() { _ = s.Close() }()
	c := dialClient(t, s, client.Options{Conns: 2, MaxPipeline: 16})
	defer func() { _ = c.Close() }()

	const writers, rounds, keysPerWriter = 16, 150, 8
	models := make([]map[string][]byte, writers)
	var wg sync.WaitGroup
	for w := range models {
		models[w] = make(map[string][]byte)
		wg.Add(1)
		go func(w int, model map[string][]byte) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%02d-k%d", w, i%keysPerWriter)
				value := make([]byte, 1+(i*7919+w*104729)%3000)
				for j := range value {
					value[j] = byte(w*31 + i + j)
				}
				if err := c.Put([]byte(key), value); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				model[key] = value
				got, err := c.Get([]byte(key))
				if err != nil || !bytes.Equal(got, value) {
					t.Errorf("get %s after put: %d bytes, %v; want the %d bytes put", key, len(got), err, len(value))
					return
				}
			}
		}(w, models[w])
	}
	wg.Wait()
	for _, model := range models {
		for key, want := range model {
			if got, err := s.DB().Get([]byte(key)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("store holds %d bytes under %s (%v), want the %d bytes last put", len(got), key, err, len(want))
			}
		}
	}
}
