package server

import "fcae/internal/obs"

// serverMetrics holds the server's instruments, registered into the
// store's registry so one /metrics snapshot covers the whole stack —
// protocol counters next to the dispatch_* and store gauges.
type serverMetrics struct {
	requests       *obs.Counter
	requestBytes   *obs.Counter
	responseBytes  *obs.Counter
	protocolErrors *obs.Counter
	connsOpened    *obs.Counter
	connsClosed    *obs.Counter
	// busyStall counts writes shed because the store was in a hard
	// write stall.
	busyStall *obs.Counter
	// flushes counts the socket writes that carried responses: requests
	// over flushes is the responses per syscall.
	flushes *obs.Counter

	ops   [OpScan + 1]*obs.Counter
	nanos [OpScan + 1]*obs.Histogram
	// fallbacks for out-of-range ops so callers never nil-deref
	otherOps   *obs.Counter
	otherNanos *obs.Histogram
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		requests:       r.Counter("server_requests"),
		requestBytes:   r.Counter("server_request_bytes"),
		responseBytes:  r.Counter("server_response_bytes"),
		protocolErrors: r.Counter("server_protocol_errors"),
		connsOpened:    r.Counter("server_conns_opened"),
		connsClosed:    r.Counter("server_conns_closed"),
		busyStall:      r.Counter("server_busy_stall"),
		flushes:        r.Counter("server_response_flushes"),
		otherOps:       r.Counter("server_op_other"),
		otherNanos:     r.Histogram("server_op_other_nanos"),
	}
	for op := OpGet; op <= OpScan; op++ {
		m.ops[op] = r.Counter("server_op_" + op.String())
		m.nanos[op] = r.Histogram("server_op_" + op.String() + "_nanos")
	}
	return m
}

func (m *serverMetrics) opCount(op Op) *obs.Counter {
	if op >= OpGet && op <= OpScan {
		return m.ops[op]
	}
	return m.otherOps
}

func (m *serverMetrics) opNanos(op Op) *obs.Histogram {
	if op >= OpGet && op <= OpScan {
		return m.nanos[op]
	}
	return m.otherNanos
}
