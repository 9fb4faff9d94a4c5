// Package client is the Go client for the fcae network server: a small
// connection pool whose every connection pipelines requests (many
// outstanding ops share one socket, responses demultiplexed by request
// id), with per-op deadlines and typed protocol errors. All methods are
// safe for concurrent use; throughput comes from calling them from many
// goroutines so the pipeline fills.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fcae/internal/lsm"
	"fcae/internal/server"
)

// Options configures a Client. Zero values select defaults; Addr is
// mandatory.
type Options struct {
	// Addr is the server's KV address, e.g. "127.0.0.1:4490".
	Addr string
	// Conns is the connection-pool size. Default 2.
	Conns int
	// MaxPipeline bounds outstanding requests per connection. Default 128.
	MaxPipeline int
	// DialTimeout bounds each TCP dial. Default 5s.
	DialTimeout time.Duration
	// OpTimeout bounds each operation end to end (slot wait + write +
	// response). 0 means no deadline. Default 30s.
	OpTimeout time.Duration
	// MaxFrameBytes bounds response frames (0 = server.DefaultMaxFrameBytes).
	MaxFrameBytes int
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
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
	closec chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  []*poolConn
	next   int
	closed bool
}

// poolConn is one pooled socket: ids allocates request ids, tokens is
// the pipeline-depth semaphore, w combines the requests of concurrent
// callers into shared socket writes, and the mu-guarded pending map is
// the response demultiplexer's routing table.
type poolConn struct {
	cl     *Client
	nc     net.Conn
	ids    atomic.Uint64
	tokens chan struct{}
	w      *server.FrameWriter

	mu      sync.Mutex
	pending map[uint64]chan result
	dead    bool
	deadErr error
}

// dialFunc is net.DialTimeout's signature; tests substitute one that
// blocks.
type dialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Dial connects the pool and returns a ready client. Every connection is
// established eagerly so a bad address fails here, not on first use.
func Dial(opts Options) (*Client, error) { return dialWith(opts, net.DialTimeout) }

func dialWith(opts Options, dial dialFunc) (*Client, error) {
	opts = opts.withDefaults()
	if opts.Addr == "" {
		return nil, errors.New("client: Options.Addr is required")
	}
	c := &Client{opts: opts, closec: make(chan struct{}), dial: dial, conns: make([]*poolConn, opts.Conns)}
	for slot := range c.conns {
		if _, err := c.redial(slot, nil); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// redial connects a replacement for old, the dead (or not yet dialed)
// occupant of slot, and returns the connection the slot then holds. The
// dial runs outside c.mu, so callers headed for live slots never wait
// behind it; of several callers redialing one slot the first to finish
// installs its connection and the others drop their spare and use the
// winner's.
func (c *Client) redial(slot int, old *poolConn) (*poolConn, error) {
	nc, err := c.dial("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.opts.Addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = nc.Close()
		return nil, ErrClientClosed
	}
	if cur := c.conns[slot]; cur != old {
		_ = nc.Close()
		return cur, nil
	}
	pc := &poolConn{
		cl:      c,
		nc:      nc,
		tokens:  make(chan struct{}, c.opts.MaxPipeline),
		w:       server.NewFrameWriter(nc, c.opts.OpTimeout, nil),
		pending: make(map[uint64]chan result),
	}
	c.conns[slot] = pc
	// Started under c.mu, where Close has not yet begun waiting on wg.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		pc.readLoop()
	}()
	return pc, nil
}

// conn picks the next live connection round-robin, redialing dead slots
// in place.
func (c *Client) conn() (*poolConn, error) {
	var err error
	for range c.conns {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		slot := c.next % len(c.conns)
		c.next++
		pc := c.conns[slot]
		c.mu.Unlock()
		if !pc.isDead() {
			return pc, nil
		}
		if pc, err = c.redial(slot, pc); err == nil {
			return pc, nil
		}
	}
	return nil, err
}

// Close tears the pool down: outstanding operations fail with
// ErrClientClosed and every demultiplexer goroutine is joined.
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
func (c *Client) do(op server.Op, payload func(dst []byte) []byte) (server.Status, []byte, error) {
	pc, err := c.conn()
	if err != nil {
		return 0, nil, err
	}
	var deadline <-chan time.Time
	if c.opts.OpTimeout > 0 {
		timer := time.NewTimer(c.opts.OpTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	// Pipeline slot: bounds outstanding requests per connection.
	select {
	case pc.tokens <- struct{}{}:
	case <-c.closec:
		return 0, nil, ErrClientClosed
	case <-deadline:
		return 0, nil, fmt.Errorf("%w: %s awaiting pipeline slot", ErrOpTimeout, op)
	}
	defer func() { <-pc.tokens }()

	id := pc.ids.Add(1)
	ch := make(chan result, 1)
	if err := pc.register(id, ch); err != nil {
		return 0, nil, err
	}
	// The pipeline slots taken say whether other callers are about to
	// send on this connection too.
	if err := pc.w.Send(id, byte(op), payload, len(pc.tokens) > 1); err != nil {
		// The stream is in an unknown state: the connection dies, and
		// with it every op waiting on it.
		return 0, nil, pc.fail(fmt.Errorf("client: write: %w", err))
	}
	select {
	case r := <-ch:
		return r.status, r.payload, r.err
	case <-c.closec:
		pc.unregister(id)
		return 0, nil, ErrClientClosed
	case <-deadline:
		// The response may still arrive; the demultiplexer will find no
		// waiter and drop it.
		pc.unregister(id)
		return 0, nil, fmt.Errorf("%w: %s", ErrOpTimeout, op)
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

func (pc *poolConn) register(id uint64, ch chan result) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dead {
		return pc.deadErr
	}
	pc.pending[id] = ch
	return nil
}

func (pc *poolConn) unregister(id uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	delete(pc.pending, id)
}

func (pc *poolConn) isDead() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.dead
}

// readLoop demultiplexes responses to their waiting ops until the
// connection dies.
func (pc *poolConn) readLoop() {
	br := bufio.NewReaderSize(pc.nc, 32<<10)
	for {
		id, statusb, payload, err := server.ReadFrame(br, pc.cl.opts.MaxFrameBytes)
		if err != nil {
			_ = pc.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		pc.complete(id, result{status: server.Status(statusb), payload: payload})
	}
}

func (pc *poolConn) complete(id uint64, r result) {
	pc.mu.Lock()
	ch := pc.pending[id]
	delete(pc.pending, id)
	pc.mu.Unlock()
	if ch != nil {
		ch <- r // buffered; at most one send per channel ever happens
	}
}

// fail marks the connection dead exactly once, closes the socket, and
// errors out every waiter. It returns the error the connection died of,
// which is err only for the first caller.
func (pc *poolConn) fail(err error) error {
	pc.mu.Lock()
	if pc.dead {
		defer pc.mu.Unlock()
		return pc.deadErr
	}
	pc.dead = true
	pc.deadErr = err
	pending := pc.pending
	pc.pending = nil
	pc.mu.Unlock()
	_ = pc.nc.Close()
	for _, ch := range pending {
		ch <- result{err: err}
	}
	return err
}
