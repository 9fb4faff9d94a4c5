package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fcae/internal/lsm"
)

// response is one frame queued for a connection's writer.
type response struct {
	id      uint64
	status  Status
	payload []byte
}

// conn serves one client connection: a read loop that admits and spawns
// request handlers, and a single writer goroutine that serializes their
// out-of-order responses back onto the socket. The connection's owner is
// Server.serveConn; run returns only after every handler finished and
// the writer flushed, so the server-wide connWg join covers everything.
type conn struct {
	srv     *Server
	nc      net.Conn
	writech chan response
	// handlers joins the per-request goroutines; writerWg joins the
	// writer.
	handlers sync.WaitGroup
	writerWg sync.WaitGroup
}

// stopReading half-closes the read side so a blocked ReadFrame returns
// and no further requests are consumed, while queued responses still
// flow out.
func (c *conn) stopReading() {
	if tc, ok := c.nc.(*net.TCPConn); ok {
		_ = tc.CloseRead()
		return
	}
	_ = c.nc.SetReadDeadline(time.Now())
}

func (c *conn) run() {
	c.writech = make(chan response, 64)
	c.writerWg.Add(1)
	go c.writeLoop()
	c.readLoop()
	c.handlers.Wait()
	close(c.writech)
	c.writerWg.Wait()
	_ = c.nc.Close()
}

func (c *conn) readLoop() {
	s := c.srv
	br := bufio.NewReaderSize(c.nc, 32<<10)
	for {
		id, opb, payload, err := ReadFrame(br, s.cfg.MaxFrameBytes)
		if err != nil {
			// A malformed or oversized frame desynchronizes the stream;
			// the only safe reaction is dropping the connection.
			if errors.Is(err, ErrMalformedFrame) || errors.Is(err, ErrFrameTooLarge) {
				s.met.protocolErrors.Inc()
			}
			return
		}
		s.met.requests.Inc()
		s.met.requestBytes.Add(int64(frameHeaderSize + framePrefixSize + len(payload)))
		op := Op(opb)
		if op < OpGet || op > OpScan {
			s.met.protocolErrors.Inc()
			c.enqueue(id, StatusErr, []byte(fmt.Sprintf("unknown opcode %d", opb)))
			continue
		}
		c.srv.met.opCount(op).Inc()
		// Stall shedding: while the store is in a hard write stall,
		// refuse writes immediately instead of queueing goroutines
		// behind a blocked memtable. Reads keep flowing.
		if op.writes() && s.stall.stalled() {
			s.met.busyStall.Inc()
			c.enqueue(id, StatusBusy, nil)
			continue
		}
		select {
		case s.inflight <- struct{}{}:
		case <-s.stopc:
			c.enqueue(id, StatusClosing, nil)
			return
		}
		c.handlers.Add(1)
		go c.handle(id, op, payload)
	}
}

func (c *conn) handle(id uint64, op Op, payload []byte) {
	defer c.handlers.Done()
	defer func() { <-c.srv.inflight }()
	start := time.Now()
	status, resp := c.execute(op, payload)
	c.srv.met.opNanos(op).ObserveDuration(time.Since(start))
	c.enqueue(id, status, resp)
}

// execute runs one decoded request against the store.
func (c *conn) execute(op Op, payload []byte) (Status, []byte) {
	s := c.srv
	switch op {
	case OpGet:
		key, rest, err := ReadBytes(payload)
		if err != nil || len(rest) != 0 {
			return c.malformed(op)
		}
		value, err := s.db.Get(key)
		if err != nil {
			return s.statusOf(err)
		}
		return StatusOK, value
	case OpPut:
		key, rest, err := ReadBytes(payload)
		if err != nil {
			return c.malformed(op)
		}
		value, rest, err := ReadBytes(rest)
		if err != nil || len(rest) != 0 {
			return c.malformed(op)
		}
		return s.statusOf(s.db.Put(key, value))
	case OpDelete:
		key, rest, err := ReadBytes(payload)
		if err != nil || len(rest) != 0 {
			return c.malformed(op)
		}
		return s.statusOf(s.db.Delete(key))
	case OpWrite:
		// The batch is only written once the whole payload has decoded,
		// so a malformed tail never leaves a prefix applied.
		var b lsm.Batch
		err := DecodeWriteOps(payload, func(kind byte, key, value []byte) error {
			if kind == wireKindDelete {
				b.Delete(key)
			} else {
				b.Put(key, value)
			}
			return nil
		})
		if err != nil {
			return c.malformed(op)
		}
		return s.statusOf(s.db.Write(&b))
	case OpScan:
		start, rest, err := ReadBytes(payload)
		if err != nil {
			return c.malformed(op)
		}
		limit, rest, err := ReadUvarint(rest)
		if err != nil || len(rest) != 0 {
			return c.malformed(op)
		}
		return c.scan(start, limit)
	}
	return StatusErr, []byte(fmt.Sprintf("unhandled opcode %d", op))
}

func (c *conn) malformed(op Op) (Status, []byte) {
	c.srv.met.protocolErrors.Inc()
	return StatusErr, []byte(fmt.Sprintf("malformed %s payload", op))
}

func (c *conn) scan(start []byte, limit uint64) (Status, []byte) {
	s := c.srv
	max := uint64(s.cfg.MaxScanEntries)
	if limit == 0 || limit > max {
		limit = max
	}
	it, err := s.db.NewIterator()
	if err != nil {
		return s.statusOf(err)
	}
	defer func() { _ = it.Close() }()

	// Entries append one at a time; the frame budget (leave room for the
	// frame prefix) caps the payload regardless of the requested limit.
	budget := s.cfg.MaxFrameBytes - 1024
	payload := appendUvarint(nil, 0) // count backpatched below
	count := uint64(0)
	var ok bool
	if len(start) == 0 {
		ok = it.First()
	} else {
		ok = it.Seek(start)
	}
	for ; ok && count < limit; ok = it.Next() {
		k, v := it.Key(), it.Value()
		if len(payload)+len(k)+len(v)+2*10 > budget {
			break
		}
		payload = AppendBytes(payload, k)
		payload = AppendBytes(payload, v)
		count++
	}
	if err := it.Error(); err != nil {
		return s.statusOf(err)
	}
	// Rebuild with the real count prefix (uvarint width may differ from
	// the zero placeholder).
	out := appendUvarint(make([]byte, 0, len(payload)+9), count)
	out = append(out, payload[1:]...)
	return StatusOK, out
}

// statusOf maps a store or admission error onto the wire.
func (s *Server) statusOf(err error) (Status, []byte) {
	switch {
	case err == nil:
		return StatusOK, nil
	case errors.Is(err, lsm.ErrNotFound):
		return StatusNotFound, nil
	case errors.Is(err, ErrServerBusy):
		return StatusBusy, nil
	case errors.Is(err, ErrServerClosing), errors.Is(err, lsm.ErrClosed):
		// lsm.ErrClosed here means the request raced the drain: the
		// store is closing underneath us, which the client should see as
		// the server shutting down, not as a data error.
		return StatusClosing, nil
	default:
		return StatusErr, []byte(err.Error())
	}
}

func (c *conn) enqueue(id uint64, st Status, payload []byte) {
	c.writech <- response{id: id, status: st, payload: payload}
}

func (c *conn) writeLoop() {
	defer c.writerWg.Done()
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	var buf []byte
	failed := false
	for r := range c.writech {
		if failed {
			continue // peer is gone; drain so handlers never block
		}
		buf = AppendFrame(buf[:0], r.id, byte(r.status), r.payload)
		if t := c.srv.cfg.WriteTimeout; t > 0 {
			_ = c.nc.SetWriteDeadline(time.Now().Add(t))
		}
		if _, err := bw.Write(buf); err != nil {
			failed = true
			continue
		}
		// Flush only when the queue is momentarily empty: consecutive
		// pipelined responses coalesce into one syscall.
		if len(c.writech) == 0 {
			if err := bw.Flush(); err != nil {
				failed = true
				continue
			}
		}
		c.srv.met.responseBytes.Add(int64(len(buf)))
	}
	if !failed {
		_ = bw.Flush()
	}
}
