package server

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"time"
)

// maxBufferedBytes is the back-pressure point of a FrameWriter: while at
// least this much is waiting for the flusher, senders wait too. A server
// handler waiting here keeps its MaxInFlight token, so a peer that stops
// reading stops being read from.
const maxBufferedBytes = 256 << 10

// FrameWriter is the combining writer both ends of a connection send
// through. A sender appends its frame to the outgoing buffer under the
// mutex; the first sender to find no write in progress becomes the
// flusher, which swaps buffers, writes outside the lock, and repeats
// until nothing is left, so every frame that arrived during one socket
// write leaves in the next. There is no writer goroutine: the flusher is
// whichever sender got there first, and it returns only once the buffer
// is empty, so joining the senders joins the writes.
type FrameWriter struct {
	nc      net.Conn
	timeout time.Duration // bounds each socket write; 0 = none
	onFlush func(n int)   // called after each successful socket write of n bytes; may be nil

	mu       sync.Mutex
	room     sync.Cond // signalled when the flusher takes the buffer or fails
	buf      []byte    // frames not yet taken by the flusher
	spare    []byte    // the buffer of the previous write, recycled
	flushing bool
	err      error // first write error; sticky
}

// NewFrameWriter returns a writer onto nc.
func NewFrameWriter(nc net.Conn, timeout time.Duration, onFlush func(n int)) *FrameWriter {
	w := &FrameWriter{nc: nc, timeout: timeout, onFlush: onFlush}
	w.room.L = &w.mu
	return w
}

// Send queues one frame whose payload is whatever fill appends to its
// argument (fill runs under the writer's lock and must only append), and
// returns once the frame is buffered behind a running flusher or, when
// this sender is the flusher, written. others says that more requests
// are in flight on this connection: the new flusher then yields to the
// scheduler once before its first write, so peers that are already
// runnable get their frames into it. A lone request never yields.
//
// After a failed write every Send, including those waiting for room,
// returns that first error, and the frames buffered behind it are
// dropped; the caller owns closing the connection.
func (w *FrameWriter) Send(id uint64, op byte, fill func(dst []byte) []byte, others bool) error {
	w.mu.Lock()
	for len(w.buf) >= maxBufferedBytes && w.err == nil {
		w.room.Wait()
	}
	if err := w.err; err != nil {
		w.mu.Unlock()
		return err
	}
	start := len(w.buf)
	w.buf = fill(AppendFrame(w.buf, id, op, nil))
	binary.BigEndian.PutUint32(w.buf[start:], uint32(len(w.buf)-start-frameHeaderSize))
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	w.mu.Unlock()
	if others {
		runtime.Gosched()
	}
	return w.flush()
}

func (w *FrameWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.buf) > 0 && w.err == nil {
		out := w.buf
		w.buf = w.spare[:0]
		w.room.Broadcast()
		w.mu.Unlock()
		if w.timeout > 0 {
			_ = w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		_, err := w.nc.Write(out)
		if err == nil && w.onFlush != nil {
			w.onFlush(len(out))
		}
		w.mu.Lock()
		w.err = err
		w.spare = out
		if cap(out) > 2*maxBufferedBytes {
			w.spare = nil // one oversized frame must not pin two buffers of its size
		}
	}
	if w.err != nil {
		w.buf = nil
		w.room.Broadcast()
	}
	w.flushing = false
	return w.err
}
