package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fcae/internal/lsm"
)

// conn serves one client connection: a read loop that admits and spawns
// request handlers, which send their out-of-order responses through the
// connection's combining writer. The connection's owner is
// Server.serveConn; run returns only after every handler finished, and a
// handler returns only once its response is written or handed to a
// handler that is still writing, so the server-wide connWg join covers
// everything.
type conn struct {
	srv *Server
	nc  net.Conn
	w   *FrameWriter
	// handlers joins the per-request goroutines.
	handlers sync.WaitGroup
	// unanswered counts requests read and not yet replied to.
	unanswered atomic.Int32
	// failed is set by the first reply that could not be written; the
	// reader then stops, even with whole requests left in its buffer.
	failed atomic.Bool
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
	c.w = NewFrameWriter(c.nc, c.srv.cfg.WriteTimeout, func(n int) {
		c.srv.met.flushes.Inc()
		c.srv.met.responseBytes.Add(int64(n))
	})
	c.readLoop()
	c.handlers.Wait()
	_ = c.nc.Close()
}

func (c *conn) readLoop() {
	s := c.srv
	br := bufio.NewReaderSize(c.nc, 32<<10)
	for !c.failed.Load() {
		// The body is the handler's until its reply is written, and comes
		// back here through s.bodies; a request answered without a handler
		// gives it back at once.
		body := s.bodies.Get().(*[]byte)
		id, opb, payload, err := readFrame(br, s.cfg.MaxFrameBytes, body)
		if err != nil {
			// A malformed or oversized frame desynchronizes the stream;
			// the only safe reaction is dropping the connection.
			if errors.Is(err, ErrMalformedFrame) || errors.Is(err, ErrFrameTooLarge) {
				s.met.protocolErrors.Inc()
			}
			recycle(&s.bodies, body)
			return
		}
		c.unanswered.Add(1)
		s.met.requests.Inc()
		s.met.requestBytes.Add(int64(frameHeaderSize + framePrefixSize + len(payload)))
		op := Op(opb)
		if op < OpGet || op > OpScan {
			s.met.protocolErrors.Inc()
			c.reply(id, StatusErr, []byte(fmt.Sprintf("unknown opcode %d", opb)))
			recycle(&s.bodies, body)
			continue
		}
		c.srv.met.opCount(op).Inc()
		// Stall shedding: while the store is in a hard write stall,
		// refuse writes immediately instead of queueing goroutines
		// behind a blocked memtable. Reads keep flowing.
		if op.writes() && s.stall.stalled() {
			s.met.busyStall.Inc()
			c.reply(id, StatusBusy, nil)
			recycle(&s.bodies, body)
			continue
		}
		select {
		case s.inflight <- struct{}{}:
		case <-s.stopc:
			c.reply(id, StatusClosing, nil)
			recycle(&s.bodies, body)
			return
		}
		c.handlers.Add(1)
		go c.handle(id, op, payload, body)
	}
}

// maxPooledReply bounds the buffers the server's pools keep: one huge
// scan or request must not leave a buffer of its size behind every
// handler, as DB.write does not keep an oversized group buffer.
const maxPooledReply = 1 << 20

// recycle returns buf to pool, dropping its bytes when they outgrew
// maxPooledReply.
func recycle(pool *sync.Pool, buf *[]byte) {
	if cap(*buf) > maxPooledReply {
		*buf = nil
	}
	pool.Put(buf)
}

// handle executes one request whose payload lies in body. body, and a
// SCAN's reply buffer, are the handler's until reply has returned: every
// store call copies what it keeps (a batch copies its keys and values,
// Get returns a copy, a scan's iterator is closed before execute returns),
// and Send copies the reply into the connection's outgoing buffer before
// it returns, so nothing refers to either buffer afterwards.
func (c *conn) handle(id uint64, op Op, payload []byte, body *[]byte) {
	defer c.handlers.Done()
	defer func() { <-c.srv.inflight }()
	start := time.Now()
	var buf *[]byte
	if op == OpScan {
		buf = c.srv.replyBufs.Get().(*[]byte)
	}
	status, resp := c.execute(op, payload, buf)
	c.srv.met.opNanos(op).ObserveDuration(time.Since(start))
	c.reply(id, status, resp)
	recycle(&c.srv.bodies, body)
	if buf != nil {
		recycle(&c.srv.replyBufs, buf)
	}
}

// execute runs one decoded request against the store. buf is the reply
// buffer a SCAN builds its payload in, nil for every other op.
func (c *conn) execute(op Op, payload []byte, buf *[]byte) (Status, []byte) {
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
		return c.scan(start, limit, buf)
	}
	return StatusErr, []byte(fmt.Sprintf("unhandled opcode %d", op))
}

func (c *conn) malformed(op Op) (Status, []byte) {
	c.srv.met.protocolErrors.Inc()
	return StatusErr, []byte(fmt.Sprintf("malformed %s payload", op))
}

// scan builds the reply in *buf, which keeps whatever capacity the reply
// grew it to; the payload returned is a slice of it.
func (c *conn) scan(start []byte, limit uint64, buf *[]byte) (Status, []byte) {
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

	// Entries append one at a time, straight from the iterator's views;
	// the frame budget (leave room for the frame prefix) caps the payload
	// regardless of the requested limit. The count goes in front once it
	// is known, right-aligned in the room reserved for the widest uvarint.
	budget := s.cfg.MaxFrameBytes - 1024
	var prefix [binary.MaxVarintLen64]byte
	payload := append((*buf)[:0], prefix[:]...)
	defer func() { *buf = payload }()
	count := uint64(0)
	var ok bool
	if len(start) == 0 {
		ok = it.First()
	} else {
		ok = it.Seek(start)
	}
	for ; ok && count < limit; ok = it.Next() {
		k, v := it.Key(), it.Value()
		if len(payload)+len(k)+len(v)+2*binary.MaxVarintLen64 > budget {
			if count == 0 {
				// Nothing fits, and an empty OK reply would read as the
				// end of the data.
				return StatusErr, []byte(fmt.Sprintf("scan: entry of %d key and %d value bytes exceeds the %d-byte frame limit",
					len(k), len(v), s.cfg.MaxFrameBytes))
			}
			break
		}
		payload = AppendBytes(payload, k)
		payload = AppendBytes(payload, v)
		count++
	}
	if err := it.Error(); err != nil {
		return s.statusOf(err)
	}
	n := binary.PutUvarint(prefix[:], count)
	copy(payload[len(prefix)-n:], prefix[:n])
	return StatusOK, payload[len(prefix)-n:]
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

// reply sends the one response every request read gets. Responses of
// requests that finish while a socket write is in progress leave together
// in the next one. A failed write drops the connection: the reader stops,
// and the replies still to come are discarded.
func (c *conn) reply(id uint64, st Status, payload []byte) {
	others := c.unanswered.Add(-1) > 0
	fill := func(dst []byte) []byte { return append(dst, payload...) }
	if err := c.w.Send(id, byte(st), fill, others); err != nil {
		c.failed.Store(true)
		_ = c.nc.Close()
	}
}
