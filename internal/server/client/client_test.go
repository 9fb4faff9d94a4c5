package client

import (
	"bufio"
	"bytes"
	"errors"
	"net"
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

func (pc *poolConn) pendingLen() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.pending)
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
