// Package client is the Go client for the fcae network server: a small
// connection pool whose every connection pipelines requests (many
// outstanding ops share one socket, responses demultiplexed by request
// id), with an end-to-end deadline per op and typed protocol errors. All
// methods are safe for concurrent use; throughput comes from calling them
// from many goroutines so the pipeline fills.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fcae/internal/lsm"
	"fcae/internal/server"
)

// Options configures a Client. Zero values select defaults; Addr is
// mandatory. Validate lists what Dial rejects.
type Options struct {
	// Addr is the server's KV address, e.g. "127.0.0.1:4490".
	Addr string
	// Conns is the connection-pool size. 0 selects 2.
	Conns int
	// MaxPipeline bounds outstanding requests per connection, at most
	// 65536. 0 selects 128.
	MaxPipeline int
	// DialTimeout bounds each TCP dial. 0 selects 5s.
	DialTimeout time.Duration
	// OpTimeout bounds each operation end to end (slot wait + write +
	// response). 0 selects 30s; a negative value disables the deadline.
	// One sweep per connection enforces it every OpTimeout/8 (at least
	// every millisecond), so an op times out never early and at most that
	// period late.
	OpTimeout time.Duration
	// MaxFrameBytes bounds response frames. 0 selects
	// server.DefaultMaxFrameBytes.
	MaxFrameBytes int
}

// maxPipeline bounds Options.MaxPipeline: each connection allocates its
// slot table up front.
const maxPipeline = 1 << 16

// sweepsPerTimeout is how many deadline sweeps a connection makes per
// OpTimeout: the most an op can overstay is OpTimeout/sweepsPerTimeout.
const sweepsPerTimeout = 8

// Validate reports an option no default stands in for: a missing Addr, a
// negative count, size or dial timeout, or a pipeline deeper than 65536.
// A negative OpTimeout is valid: it disables the deadline.
func (o Options) Validate() error {
	switch {
	case o.Addr == "":
		return errors.New("client: Options.Addr is required")
	case o.Conns < 0:
		return fmt.Errorf("client: Options.Conns %d is negative", o.Conns)
	case o.MaxPipeline < 0 || o.MaxPipeline > maxPipeline:
		return fmt.Errorf("client: Options.MaxPipeline %d is outside [0, %d]", o.MaxPipeline, maxPipeline)
	case o.DialTimeout < 0:
		return fmt.Errorf("client: Options.DialTimeout %v is negative", o.DialTimeout)
	case o.MaxFrameBytes < 0:
		return fmt.Errorf("client: Options.MaxFrameBytes %d is negative", o.MaxFrameBytes)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Conns == 0 {
		o.Conns = 2
	}
	if o.MaxPipeline == 0 {
		o.MaxPipeline = 128
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = 30 * time.Second
	}
	return o
}

// Typed client errors. Server-side conditions come back as the server
// package's sentinels (server.ErrServerBusy, server.ErrServerClosing) or
// lsm.ErrNotFound, so one errors.Is vocabulary spans library and wire use.
var (
	// ErrClientClosed reports an operation on a closed client.
	ErrClientClosed = errors.New("client: closed")
	// ErrOpTimeout reports an operation that outlived Options.OpTimeout.
	// The request may still execute on the server; only the wait ended.
	ErrOpTimeout = errors.New("client: operation timed out")
)

// ServerError carries a StatusErr response's message.
type ServerError struct {
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string { return "client: server error: " + e.Msg }

// result is one demultiplexed response.
type result struct {
	status  server.Status
	payload []byte
	err     error
}

// Client is a pooled, pipelining connection to one server.
type Client struct {
	opts   Options
	dial   dialFunc
	epoch  time.Time // op deadlines count nanoseconds from here, on the monotonic clock
	closec chan struct{}
	wg     sync.WaitGroup
	// live holds what conns holds, for the per-op pick, which takes no
	// lock; redial stores each connection in both under mu. next is the
	// pick's round-robin cursor, a plain integer moved only with
	// sync/atomic, so that tests can aim the next pick by assigning it.
	live []atomic.Pointer[poolConn]
	next uint32

	mu     sync.Mutex
	conns  []*poolConn
	closed bool
}

// poolConn is one pooled socket. slots is its pipeline and free holds the
// indices of the idle slots, so taking one from free is both the depth
// bound and the allocation; a request's id names its slot (slot.arm), so
// the reader routes a response by index, not through a map. w combines
// the requests of concurrent callers into shared socket writes.
type poolConn struct {
	cl    *Client
	nc    net.Conn
	w     *server.FrameWriter
	slots []slot
	free  chan uint32
	stop  chan struct{} // closed by fail: ends the deadline sweep
	dead  atomic.Bool

	mu      sync.Mutex
	deadErr error
}

// slot is one pipeline position of a connection. The op holding its
// index arms it with a fresh id and waits on reply; whoever first swaps
// that id out — the reader with the response, the deadline sweep, or
// fail — sends the op its one result.
type slot struct {
	id       atomic.Uint64 // the request in flight; 0 while idle
	deadline atomic.Int64  // the op's deadline, in nanoseconds since Client.epoch
	seq      uint64        // times armed; touched only by the op holding the slot
	reply    chan result   // made on first use; buffered for the one result
}

// arm gives slot i of n its next id, seq·n + i, due at deadline. The
// deadline is stored first, so whoever loads the id sees its deadline.
func (s *slot) arm(i uint32, n int, deadline int64) uint64 {
	if s.reply == nil {
		s.reply = make(chan result, 1)
	}
	s.seq++
	id := s.seq*uint64(n) + uint64(i)
	s.deadline.Store(deadline)
	s.id.Store(id)
	return id
}

// settle hands r to the op waiting as id, unless another caller already
// settled it or the slot has moved on to a later id; of all the callers
// for one id, exactly one wins.
func (s *slot) settle(id uint64, r result) {
	if s.id.CompareAndSwap(id, 0) {
		s.reply <- r // buffered; the holder drains it before it re-arms
	}
}

// dialFunc is net.DialTimeout's signature; tests substitute one that
// blocks.
type dialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Dial connects the pool and returns a ready client. Every connection is
// established eagerly so a bad address fails here, not on first use.
func Dial(opts Options) (*Client, error) { return dialWith(opts, net.DialTimeout) }

func dialWith(opts Options, dial dialFunc) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	c := &Client{
		opts:   opts,
		dial:   dial,
		epoch:  time.Now(),
		closec: make(chan struct{}),
		live:   make([]atomic.Pointer[poolConn], opts.Conns),
		conns:  make([]*poolConn, opts.Conns),
	}
	for at := range c.conns {
		if _, err := c.redial(at, nil); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// redial connects a replacement for old, the dead (or not yet dialed)
// occupant of pool position at, and returns the connection the position
// then holds. The dial runs outside c.mu, so callers headed for live
// positions never wait behind it; of several callers redialing one
// position the first to finish installs its connection and the others
// drop their spare and use the winner's.
func (c *Client) redial(at int, old *poolConn) (*poolConn, error) {
	select {
	case <-c.closec:
		return nil, ErrClientClosed
	default:
	}
	nc, err := c.dial("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.opts.Addr, err)
	}
	pc := c.newPoolConn(nc)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = nc.Close()
		return nil, ErrClientClosed
	}
	if cur := c.conns[at]; cur != old {
		_ = nc.Close()
		return cur, nil
	}
	c.conns[at] = pc
	c.live[at].Store(pc)
	// Started under c.mu, where Close has not yet begun waiting on wg.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		pc.readLoop()
	}()
	if c.opts.OpTimeout > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			pc.sweep(max(c.opts.OpTimeout/sweepsPerTimeout, time.Millisecond))
		}()
	}
	return pc, nil
}

// newPoolConn wraps nc with every slot idle.
func (c *Client) newPoolConn(nc net.Conn) *poolConn {
	n := c.opts.MaxPipeline
	free := make(chan uint32, n)
	for i := 0; i < n; i++ {
		free <- uint32(i)
	}
	return &poolConn{
		cl:    c,
		nc:    nc,
		w:     server.NewFrameWriter(nc, c.opts.OpTimeout, nil),
		slots: make([]slot, n),
		free:  free,
		stop:  make(chan struct{}),
	}
}

// conn picks the next connection round-robin, without a lock, redialing a
// dead one in place.
func (c *Client) conn() (*poolConn, error) {
	var err error
	for range c.live {
		at := int((atomic.AddUint32(&c.next, 1) - 1) % uint32(len(c.live)))
		pc := c.live[at].Load()
		if !pc.isDead() {
			return pc, nil
		}
		if pc, err = c.redial(at, pc); err == nil {
			return pc, nil
		}
	}
	return nil, err
}

// Close tears the pool down: outstanding operations fail with
// ErrClientClosed and every demultiplexer and sweep goroutine is joined.
// Idempotent.
//
//fcae:chan-owner client.Client.closec
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*poolConn(nil), c.conns...)
	c.mu.Unlock()
	close(c.closec)
	for _, pc := range conns {
		if pc != nil {
			pc.fail(ErrClientClosed)
		}
	}
	c.wg.Wait()
	return nil
}

// Get fetches key's value; lsm.ErrNotFound when absent.
func (c *Client) Get(key []byte) ([]byte, error) {
	st, payload, err := c.do(server.OpGet, func(dst []byte) []byte { return server.AppendGetPayload(dst, key) })
	if err != nil {
		return nil, err
	}
	if err := statusErr(st, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Put sets key to value.
func (c *Client) Put(key, value []byte) error {
	st, payload, err := c.do(server.OpPut, func(dst []byte) []byte { return server.AppendPutPayload(dst, key, value) })
	if err != nil {
		return err
	}
	return statusErr(st, payload)
}

// Delete removes key (a missing key is not an error).
func (c *Client) Delete(key []byte) error {
	st, payload, err := c.do(server.OpDelete, func(dst []byte) []byte { return server.AppendDeletePayload(dst, key) })
	if err != nil {
		return err
	}
	return statusErr(st, payload)
}

// Write applies b atomically on the server.
func (c *Client) Write(b *server.Batch) error {
	st, payload, err := c.do(server.OpWrite, func(dst []byte) []byte { return server.AppendWritePayload(dst, b) })
	if err != nil {
		return err
	}
	return statusErr(st, payload)
}

// Scan returns up to limit pairs from start (inclusive) in key order.
// limit <= 0 requests the server's maximum; the server also caps the
// result by its own MaxScanEntries and frame size.
func (c *Client) Scan(start []byte, limit int) ([]server.KV, error) {
	if limit < 0 {
		limit = 0
	}
	st, payload, err := c.do(server.OpScan, func(dst []byte) []byte { return server.AppendScanPayload(dst, start, limit) })
	if err != nil {
		return nil, err
	}
	if err := statusErr(st, payload); err != nil {
		return nil, err
	}
	kvs, err := server.DecodeScanPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("client: bad scan response: %w", err)
	}
	return kvs, nil
}

// do runs one request/response exchange on a pooled connection; payload
// encodes the request straight into the connection's outgoing buffer.
// Every path past take ends in one receive of the slot's result.
func (c *Client) do(op server.Op, payload func(dst []byte) []byte) (server.Status, []byte, error) {
	pc, err := c.conn()
	if err != nil {
		return 0, nil, err
	}
	deadline := int64(time.Since(c.epoch) + c.opts.OpTimeout)
	i, err := pc.take(op)
	if err != nil {
		return 0, nil, err
	}
	s := &pc.slots[i]
	id := s.arm(i, len(pc.slots), deadline)
	if pc.dead.Load() {
		// fail may have swept the slots before this one was armed.
		s.settle(id, result{err: pc.err()})
	} else if err := pc.w.Send(id, byte(op), payload, len(pc.free) < cap(pc.free)-1); err != nil {
		// The slots taken say whether other callers are about to send on
		// this connection too. A failed write leaves the stream in an
		// unknown state: the connection dies, and with it every op waiting
		// on it, this one included. A write that missed its deadline
		// (OpTimeout) times out every one of them.
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("%w: %w", ErrOpTimeout, err)
		}
		pc.fail(fmt.Errorf("client: write: %w", err))
	}
	r := <-s.reply
	pc.free <- i
	if r.err == ErrOpTimeout {
		// The response may still arrive; the reader will find the slot
		// idle or re-armed and drop it.
		r.err = fmt.Errorf("%w: %s", ErrOpTimeout, op)
	}
	return r.status, r.payload, r.err
}

// take returns the index of an idle slot, waiting while every slot is
// busy: the only place an op selects or starts a timer.
func (pc *poolConn) take(op server.Op) (uint32, error) {
	select {
	case i := <-pc.free:
		return i, nil
	default:
	}
	var deadline <-chan time.Time
	if d := pc.cl.opts.OpTimeout; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case i := <-pc.free:
		return i, nil
	case <-pc.cl.closec:
		return 0, ErrClientClosed
	case <-deadline:
		return 0, fmt.Errorf("%w: %s awaiting pipeline slot", ErrOpTimeout, op)
	}
}

func statusErr(st server.Status, payload []byte) error {
	switch st {
	case server.StatusOK:
		return nil
	case server.StatusNotFound:
		return lsm.ErrNotFound
	case server.StatusBusy:
		return server.ErrServerBusy
	case server.StatusClosing:
		return server.ErrServerClosing
	default:
		return &ServerError{Msg: string(payload)}
	}
}

func (pc *poolConn) isDead() bool { return pc.dead.Load() }

// err returns the error the connection died of.
func (pc *poolConn) err() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.deadErr
}

// readLoop routes responses to their waiting ops until the connection
// dies.
func (pc *poolConn) readLoop() {
	br := bufio.NewReaderSize(pc.nc, 32<<10)
	n := uint64(len(pc.slots))
	for {
		id, statusb, payload, err := server.ReadFrame(br, pc.cl.opts.MaxFrameBytes)
		if err != nil {
			pc.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		// Every id issued is seq·n + slot with seq ≥ 1, so a smaller one
		// names no request; a response whose op already timed out finds its
		// slot idle or re-armed, and settle drops it.
		if id >= n {
			pc.slots[id%n].settle(id, result{status: server.Status(statusb), payload: payload})
		}
	}
}

// sweep times out, every period, the ops whose deadline has passed, until
// fail closes stop.
func (pc *poolConn) sweep(every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-pc.stop:
			return
		case <-tick.C:
		}
		now := int64(time.Since(pc.cl.epoch))
		for i := range pc.slots {
			s := &pc.slots[i]
			// A deadline read after the id is that id's or a later one's,
			// and a later id fails settle's match.
			if id := s.id.Load(); id != 0 && s.deadline.Load() <= now {
				s.settle(id, result{err: ErrOpTimeout})
			}
		}
	}
}

// fail marks the connection dead exactly once, closes the socket, stops
// the sweep, and settles every armed slot with err; later callers change
// nothing.
//
//fcae:chan-owner client.poolConn.stop
func (pc *poolConn) fail(err error) {
	pc.mu.Lock()
	if pc.dead.Load() {
		pc.mu.Unlock()
		return
	}
	pc.deadErr = err
	pc.dead.Store(true)
	pc.mu.Unlock()
	_ = pc.nc.Close()
	close(pc.stop)
	// An op armed after its slot is passed here sees dead and settles
	// itself.
	for i := range pc.slots {
		s := &pc.slots[i]
		if id := s.id.Load(); id != 0 {
			s.settle(id, result{err: err})
		}
	}
}
