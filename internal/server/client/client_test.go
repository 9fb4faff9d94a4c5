package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcae/internal/server"
)

// pipeNet stands in for the network: every dial yields one end of a
// net.Pipe and starts serve on the other. A pipe has no buffer, so a
// Write returns only once the peer has read all of it, which is what lets
// these tests hold a flusher inside its socket write.
type pipeNet struct {
	serve func(n int, nc net.Conn) // n counts dials from 1
	wrap  func(n int, nc net.Conn) net.Conn
	// Dials after the first `free` wait for gate.
	free    int32
	gate    chan struct{}
	waiting chan struct{}

	dials  atomic.Int32
	closed atomic.Int32 // server ends whose serve has returned
}

func (p *pipeNet) dial(_, _ string, _ time.Duration) (net.Conn, error) {
	n := p.dials.Add(1)
	if p.gate != nil && n > p.free {
		p.waiting <- struct{}{}
		<-p.gate
	}
	cl, sv := net.Pipe()
	go func() {
		p.serve(int(n), sv)
		_ = sv.Close()
		p.closed.Add(1)
	}()
	if p.wrap != nil {
		cl = p.wrap(int(n), cl)
	}
	return cl, nil
}

// echo answers every request with StatusOK and the request's payload.
func echo(_ int, nc net.Conn) {
	br := bufio.NewReader(nc)
	for {
		id, _, payload, err := server.ReadFrame(br, 0)
		if err != nil {
			return
		}
		if _, err := nc.Write(server.AppendFrame(nil, id, byte(server.StatusOK), payload)); err != nil {
			return
		}
	}
}

func dialPipe(t *testing.T, p *pipeNet, opts Options) *Client {
	t.Helper()
	opts.Addr = "pipe"
	c, err := dialWith(opts, p.dial)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (c *Client) slot(i int) *poolConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conns[i]
}

// pendingLen counts the armed slots: ops whose result is not yet settled.
func (pc *poolConn) pendingLen() int {
	n := 0
	for i := range pc.slots {
		if pc.slots[i].id.Load() != 0 {
			n++
		}
	}
	return n
}

// get runs one Get in its own goroutine.
func get(c *Client, key string) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Get([]byte(key))
		done <- err
	}()
	return done
}

func mustReturn(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
		return nil
	}
}

// TestRedialDoesNotHoldThePool kills one of two pooled connections and
// lets its redial hang (a listener that accepts late). Callers routed to
// the live connection must not wait behind it; when the listener finally
// accepts, of two callers redialing the same slot one installs its
// connection and the other drops its spare.
func TestRedialDoesNotHoldThePool(t *testing.T) {
	t.Parallel()
	var first atomic.Pointer[net.Conn]
	p := &pipeNet{free: 2, gate: make(chan struct{}), waiting: make(chan struct{}, 4)}
	p.serve = func(n int, nc net.Conn) {
		if n == 1 {
			first.Store(&nc)
		}
		echo(n, nc)
	}
	c := dialPipe(t, p, Options{Conns: 2})

	waitFor(t, "the first server end", func() bool { return first.Load() != nil })
	_ = (*first.Load()).Close()
	dead := c.slot(0)
	waitFor(t, "slot 0 to die", dead.isDead)

	c.mu.Lock()
	c.next = 0
	c.mu.Unlock()
	blocked1 := get(c, "a") // slot 0: redials, and hangs in the dial
	<-p.waiting
	if err := mustReturn(t, "a Get on the live slot, beside a hung redial", get(c, "b")); err != nil {
		t.Fatalf("Get on the live slot: %v", err)
	}
	blocked2 := get(c, "c") // slot 0 again: a second redial of the same slot
	<-p.waiting
	if err := mustReturn(t, "a Get on the live slot, beside two hung redials", get(c, "d")); err != nil {
		t.Fatalf("Get on the live slot: %v", err)
	}

	close(p.gate)
	for _, done := range []<-chan error{blocked1, blocked2} {
		if err := mustReturn(t, "a redialing Get, once the dial completed", done); err != nil {
			t.Fatalf("Get after redial: %v", err)
		}
	}
	if now := c.slot(0); now == dead || now.isDead() {
		t.Fatal("slot 0 was not replaced by a live connection")
	}
	// Four dials, two live connections: the killed one and the spare are gone.
	waitFor(t, "the spare connection to be dropped", func() bool { return p.closed.Load() == 2 })
	if got := p.dials.Load(); got != 4 {
		t.Fatalf("%d dials, want 4", got)
	}
}

// stuckConn is a connection whose writes wait for release and then fail.
type stuckConn struct {
	net.Conn
	inWrite chan struct{}
	release chan struct{}
	err     error
}

func (s *stuckConn) Write([]byte) (int, error) {
	s.inWrite <- struct{}{}
	<-s.release
	return 0, s.err
}

// TestWriteFailureFailsEveryWaiterOnce holds the flusher in its socket
// write while more requests queue behind it, one of them large enough
// that the rest wait for room, then fails that write. The flusher, the
// requests buffered behind it and the ones waiting for room must each
// get the error, once, and the next op must get a fresh connection.
func TestWriteFailureFailsEveryWaiterOnce(t *testing.T) {
	t.Parallel()
	errBoom := errors.New("boom")
	stuck := &stuckConn{inWrite: make(chan struct{}, 1), release: make(chan struct{}), err: errBoom}
	p := &pipeNet{serve: echo}
	p.wrap = func(n int, nc net.Conn) net.Conn {
		if n == 1 {
			stuck.Conn = nc
			return stuck
		}
		return nc
	}
	c := dialPipe(t, p, Options{Conns: 1})
	pc := c.slot(0)

	var dones []<-chan error
	dones = append(dones, get(c, "flusher"))
	<-stuck.inWrite
	big := make(chan error, 1)
	go func() { big <- c.Put([]byte("big"), bytes.Repeat([]byte("x"), 300<<10)) }()
	dones = append(dones, big)
	waitFor(t, "the large request to register", func() bool { return pc.pendingLen() == 2 })
	for i := 0; i < 6; i++ {
		dones = append(dones, get(c, "queued"))
	}
	waitFor(t, "every request to register", func() bool { return pc.pendingLen() == len(dones) })

	close(stuck.release)
	for i, done := range dones {
		if err := mustReturn(t, "an op behind a failed flush", done); !errors.Is(err, errBoom) {
			t.Fatalf("op %d: err = %v, want the write error", i, err)
		}
	}
	if !pc.isDead() || pc.pendingLen() != 0 {
		t.Fatalf("after a failed write: dead=%v, %d ops still pending", pc.isDead(), pc.pendingLen())
	}
	if err := mustReturn(t, "a Get after the failure", get(c, "again")); err != nil {
		t.Fatalf("Get on the redialed connection: %v", err)
	}
}

// TestTimedOutOpLeavesNothingBehind lets one op time out and then has the
// server answer it late, in front of the next op's reply.
func TestTimedOutOpLeavesNothingBehind(t *testing.T) {
	t.Parallel()
	answerLate := make(chan struct{})
	p := &pipeNet{serve: func(_ int, nc net.Conn) {
		br := bufio.NewReader(nc)
		id1, _, _, err := server.ReadFrame(br, 0)
		if err != nil {
			return
		}
		<-answerLate
		id2, _, _, err := server.ReadFrame(br, 0)
		if err != nil {
			return
		}
		_, _ = nc.Write(server.AppendFrame(nil, id1, byte(server.StatusOK), []byte("late")))
		_, _ = nc.Write(server.AppendFrame(nil, id2, byte(server.StatusOK), []byte("fresh")))
		echo(0, nc)
	}}
	c := dialPipe(t, p, Options{Conns: 1, OpTimeout: 200 * time.Millisecond})
	pc := c.slot(0)

	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("unanswered Get: err = %v, want ErrOpTimeout", err)
	}
	if n := pc.pendingLen(); n != 0 {
		t.Fatalf("%d pending entries after a timeout", n)
	}
	close(answerLate)
	v, err := c.Get([]byte("k"))
	if err != nil || string(v) != "fresh" {
		t.Fatalf("Get after a late reply = %q, %v; want the reply to its own id", v, err)
	}
	if pc.isDead() || pc.pendingLen() != 0 {
		t.Fatalf("a late reply disturbed the connection: dead=%v pending=%d", pc.isDead(), pc.pendingLen())
	}
}

// TestCloseFailsOpsInFlight closes the client under ops that wait for a
// reply, and under ops whose requests are still being written.
func TestCloseFailsOpsInFlight(t *testing.T) {
	t.Parallel()
	const ops = 8
	run := func(t *testing.T, p *pipeNet, inFlight func(pc *poolConn) bool) {
		c := dialPipe(t, p, Options{Conns: 1})
		pc := c.slot(0)
		var dones []<-chan error
		for i := 0; i < ops; i++ {
			dones = append(dones, get(c, "k"))
		}
		waitFor(t, "every op to be in flight", func() bool { return inFlight(pc) })
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i, done := range dones {
			if err := mustReturn(t, "an op in flight at Close", done); !errors.Is(err, ErrClientClosed) {
				t.Fatalf("op %d: err = %v, want ErrClientClosed", i, err)
			}
		}
	}
	t.Run("awaiting replies", func(t *testing.T) {
		var read atomic.Int32
		p := &pipeNet{serve: func(_ int, nc net.Conn) {
			br := bufio.NewReader(nc)
			for {
				if _, _, _, err := server.ReadFrame(br, 0); err != nil {
					return
				}
				read.Add(1)
			}
		}}
		run(t, p, func(*poolConn) bool { return read.Load() == ops })
	})
	t.Run("peer not reading", func(t *testing.T) {
		stop := make(chan struct{})
		defer close(stop)
		p := &pipeNet{serve: func(int, net.Conn) { <-stop }}
		run(t, p, func(pc *poolConn) bool { return pc.pendingLen() == ops })
	})
}

// TestDialValidatesOptions: a negative count, size or dial timeout, or a
// pipeline deeper than the slot table allows, fails Dial naming the field
// before anything is dialed. MaxPipeline -1 used to panic in makechan, and
// the other negatives were taken silently. A negative OpTimeout is valid:
// it disables the deadline.
func TestDialValidatesOptions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		opts  Options
		field string // "" when Dial must succeed
	}{
		{Options{Addr: "pipe"}, ""},
		{Options{Addr: "pipe", OpTimeout: -1}, ""},
		{Options{Addr: "pipe", MaxPipeline: maxPipeline}, ""},
		{Options{}, "Addr"},
		{Options{Addr: "pipe", Conns: -1}, "Conns"},
		{Options{Addr: "pipe", MaxPipeline: -1}, "MaxPipeline"},
		{Options{Addr: "pipe", MaxPipeline: maxPipeline + 1}, "MaxPipeline"},
		{Options{Addr: "pipe", DialTimeout: -time.Second}, "DialTimeout"},
		{Options{Addr: "pipe", MaxFrameBytes: -1}, "MaxFrameBytes"},
	}
	for _, tc := range cases {
		p := &pipeNet{serve: echo}
		c, err := dialWith(tc.opts, p.dial)
		if tc.field == "" {
			if err != nil {
				t.Errorf("%+v: %v", tc.opts, err)
				continue
			}
			if _, err := c.Get([]byte("k")); err != nil {
				t.Errorf("%+v: Get: %v", tc.opts, err)
			}
			_ = c.Close()
			continue
		}
		if err == nil {
			_ = c.Close()
			t.Errorf("%+v: Dial succeeded, want an error naming %s", tc.opts, tc.field)
			continue
		}
		if !strings.Contains(err.Error(), "Options."+tc.field) {
			t.Errorf("%+v: err = %v, want it to name Options.%s", tc.opts, err, tc.field)
		}
		if n := p.dials.Load(); n != 0 {
			t.Errorf("%+v: %d dials before the options were rejected", tc.opts, n)
		}
	}
}

// TestTimeoutsRaceReplies runs ops whose deadlines (5–20 ms) race replies
// that come back after random delays, in any order, some after their op
// gave up, through a pipeline too shallow for every caller at once. Each op
// must return its own payload or ErrOpTimeout, never another op's reply;
// afterwards no slot is armed and every slot is free, and Close leaves no
// goroutine behind. Run it under -race.
func TestTimeoutsRaceReplies(t *testing.T) {
	baseline := runtime.NumGoroutine()
	slowEcho := func(_ int, nc net.Conn) {
		var repliers sync.WaitGroup
		defer repliers.Wait()
		br := bufio.NewReader(nc)
		for n := uint64(0); ; n++ {
			id, _, payload, err := server.ReadFrame(br, 0)
			if err != nil {
				return
			}
			delay := time.Duration(n*7919%25) * time.Millisecond
			repliers.Add(1)
			go func() {
				defer repliers.Done()
				time.Sleep(delay)
				_, _ = nc.Write(server.AppendFrame(nil, id, byte(server.StatusOK), payload))
			}()
		}
	}
	var clients []*Client
	var ok, timedOut atomic.Int64
	var wg sync.WaitGroup
	for ci, timeout := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		c, err := dialWith(Options{Addr: "pipe", Conns: 2, MaxPipeline: 4, OpTimeout: timeout}, (&pipeNet{serve: slowEcho}).dial)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		clients = append(clients, c)
		for g := 0; g < 12; g++ {
			wg.Add(1)
			go func(ci, g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					key := []byte(fmt.Sprintf("c%d-g%02d-%03d", ci, g, i))
					v, err := c.Get(key)
					switch {
					case err == nil && bytes.Equal(v, server.AppendGetPayload(nil, key)):
						ok.Add(1)
					case errors.Is(err, ErrOpTimeout) && v == nil:
						timedOut.Add(1)
					default:
						t.Errorf("Get %s = %q, %v; want its own payload or ErrOpTimeout", key, v, err)
						return
					}
				}
			}(ci, g)
		}
	}
	wg.Wait()
	if ok.Load() == 0 || timedOut.Load() == 0 {
		t.Fatalf("%d answered, %d timed out: both outcomes must occur", ok.Load(), timedOut.Load())
	}
	t.Logf("%d answered, %d timed out", ok.Load(), timedOut.Load())
	for _, c := range clients {
		for at := range c.conns {
			pc := c.slot(at)
			if n := pc.pendingLen(); n != 0 || len(pc.free) != cap(pc.free) || pc.isDead() {
				t.Fatalf("after every op returned: %d slots armed, %d of %d free, dead=%v", n, len(pc.free), cap(pc.free), pc.isDead())
			}
		}
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= baseline+2 })
}

// missedDeadline is a connection whose every write misses its deadline.
type missedDeadline struct{ net.Conn }

func (missedDeadline) Write([]byte) (int, error) { return 0, os.ErrDeadlineExceeded }

// TestWriteDeadlineIsAnOpTimeout: the write deadline is OpTimeout, so a
// request that cannot be written in time has timed out. The connection
// still dies (its stream is in an unknown state), but the op returns
// ErrOpTimeout with the write's error kept as the cause. Before, it
// returned a bare write error, which TestTimeoutsRaceReplies caught on a
// busy host.
func TestWriteDeadlineIsAnOpTimeout(t *testing.T) {
	p := &pipeNet{serve: echo, wrap: func(_ int, nc net.Conn) net.Conn { return missedDeadline{nc} }}
	c := dialPipe(t, p, Options{Conns: 1, OpTimeout: time.Second})
	_, err := c.Get([]byte("k"))
	if !errors.Is(err, ErrOpTimeout) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Get over a write that missed its deadline: %v, want ErrOpTimeout caused by os.ErrDeadlineExceeded", err)
	}
	if !c.slot(0).isDead() {
		t.Fatal("the connection outlived a failed write")
	}
}

// noDeadline drops write deadlines: on a net.Pipe each one allocates a
// timer, which is the pipe's cost, not the client's.
type noDeadline struct{ net.Conn }

func (noDeadline) SetWriteDeadline(time.Time) error { return nil }

// quietEcho is echo without allocating: one buffer, the request frame sent
// back with its op byte turned into StatusOK.
func quietEcho(_ int, nc net.Conn) {
	buf := make([]byte, 64<<10)
	for {
		if _, err := io.ReadFull(nc, buf[:4]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(buf)
		if _, err := io.ReadFull(nc, buf[4:4+n]); err != nil {
			return
		}
		buf[12] = byte(server.StatusOK)
		if _, err := nc.Write(buf[:4+n]); err != nil {
			return
		}
	}
}

// TestOpAllocationBudget: a warm Get or Put allocates only the response
// frame the reader hands it (its length word and its body). A timer, a
// reply channel and a map entry per op made it 7.
func TestOpAllocationBudget(t *testing.T) {
	p := &pipeNet{serve: quietEcho, wrap: func(_ int, nc net.Conn) net.Conn { return noDeadline{nc} }}
	c := dialPipe(t, p, Options{Conns: 1})
	key, val := []byte("key-0001"), bytes.Repeat([]byte("v"), 128)
	ops := map[string]func() error{
		"Get": func() error { _, err := c.Get(key); return err },
		"Put": func() error { return c.Put(key, val) },
	}
	// Every slot's reply channel is made on its first use.
	for i := 0; i < 2*c.opts.MaxPipeline; i++ {
		for _, op := range ops {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const budget = 2
	for name, op := range ops {
		n := testing.AllocsPerRun(1000, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
		if n > budget {
			t.Errorf("a warm %s allocates %.1f times, want <= %d", name, n, budget)
		}
	}
}
