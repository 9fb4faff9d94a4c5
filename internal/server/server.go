package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fcae/internal/lsm"
	"fcae/internal/obs"
)

// Config tunes the network server. The zero value of every field selects
// a sensible default (Validate rejects negatives); Addr is the only
// mandatory field. AdminAddr == "" disables the admin plane.
type Config struct {
	// Addr is the TCP listen address for the KV protocol, e.g.
	// "127.0.0.1:4490". ":0" picks an ephemeral port (see Server.Addr).
	Addr string
	// AdminAddr is the HTTP admin listen address serving /metrics,
	// /healthz and /stats. Empty disables the admin listener.
	AdminAddr string
	// MaxInFlight bounds concurrently-executing requests across all
	// connections (admission control). Default 256.
	MaxInFlight int
	// MaxFrameBytes bounds a single protocol frame. Default
	// DefaultMaxFrameBytes (16 MiB).
	MaxFrameBytes int
	// WriteTimeout bounds each response write to a client. Default 10s.
	WriteTimeout time.Duration
	// MaxScanEntries caps entries returned by one SCAN regardless of the
	// requested limit. Default 1024.
	MaxScanEntries int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.MaxFrameBytes == 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxScanEntries == 0 {
		c.MaxScanEntries = 1024
	}
	return c
}

// Validate reports configuration contradictions.
func (c Config) Validate() error {
	if c.Addr == "" {
		return errors.New("server: Config.Addr is required")
	}
	if c.MaxInFlight < 0 || c.MaxFrameBytes < 0 || c.MaxScanEntries < 0 {
		return errors.New("server: negative Config limit")
	}
	if c.WriteTimeout < 0 {
		return errors.New("server: negative Config duration")
	}
	if c.MaxFrameBytes != 0 && c.MaxFrameBytes < 1<<10 {
		return fmt.Errorf("server: MaxFrameBytes %d below the 1KiB floor", c.MaxFrameBytes)
	}
	return nil
}

// stallWatcher tracks hard write stalls from the store's event stream so
// admission control can shed writes while the memtable or L0 is blocked.
// The soft L0 slowdown (1ms) is deliberately ignored: it is the store
// pacing itself, not a condition the server should amplify into errors.
type stallWatcher struct {
	obs.NoopListener
	depth atomic.Int64
}

// WriteStallBegin implements obs.EventListener.
func (w *stallWatcher) WriteStallBegin(e obs.WriteStallBeginEvent) {
	if e.Reason == obs.StallMemTableFull || e.Reason == obs.StallL0Stop {
		w.depth.Add(1)
	}
}

// WriteStallEnd implements obs.EventListener.
func (w *stallWatcher) WriteStallEnd(e obs.WriteStallEndEvent) {
	if e.Reason == obs.StallMemTableFull || e.Reason == obs.StallL0Stop {
		w.depth.Add(-1)
	}
}

func (w *stallWatcher) stalled() bool { return w.depth.Load() > 0 }

// Server is the TCP KV service. Construct with Open; shut down with
// Close. Fields above mu are set once in Open (or are internally
// synchronized); conns and closed are guarded by mu.
type Server struct {
	cfg     Config
	db      *lsm.DB
	met     *serverMetrics
	stall   *stallWatcher
	ln      net.Listener
	adminLn net.Listener
	admin   *http.Server
	// stopc broadcasts shutdown; inflight is the admission-token
	// semaphore.
	stopc    chan struct{}
	inflight chan struct{}
	active   atomic.Int64
	draining atomic.Bool
	// replyBufs recycles the buffers SCAN replies are built in (*[]byte),
	// so a scan allocates nothing that grows with its reply; bodies
	// recycles the ones request frames are read into.
	replyBufs sync.Pool
	bodies    sync.Pool
	// connWg joins the acceptor and every connection goroutine; wg joins
	// the admin listener.
	connWg sync.WaitGroup
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
}

// Open opens (or creates) the store at dir and starts serving it on
// cfg.Addr. The server chains its stall watcher in front of any
// opts.EventListener, registers its instruments into the store's metrics
// registry, and owns the store: Close drains connections and then closes
// the DB.
func Open(dir string, opts lsm.Options, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	s := &Server{
		cfg:      cfg,
		stall:    &stallWatcher{},
		stopc:    make(chan struct{}),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[*conn]struct{}),

		replyBufs: sync.Pool{New: func() any { return new([]byte) }},
		bodies:    sync.Pool{New: func() any { return new([]byte) }},
	}
	if opts.EventListener != nil {
		opts.EventListener = obs.MultiListener{s.stall, opts.EventListener}
	} else {
		opts.EventListener = s.stall
	}

	db, err := lsm.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s.db = db

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	s.ln = ln

	if cfg.AdminAddr != "" {
		adminLn, err := net.Listen("tcp", cfg.AdminAddr)
		if err != nil {
			_ = ln.Close()
			_ = db.Close()
			return nil, err
		}
		s.adminLn = adminLn
		s.admin = &http.Server{
			Handler:           s.adminMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
	}

	s.met = newServerMetrics(db.Registry())
	s.registerGauges(db.Registry())

	s.connWg.Add(1)
	go s.acceptLoop()
	if s.admin != nil {
		s.wg.Add(1)
		go s.serveAdmin()
	}
	return s, nil
}

// Addr returns the KV listener's bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// AdminAddr returns the admin listener's bound address, or nil when the
// admin plane is disabled.
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

// DB exposes the underlying store for read-side inspection (Stats,
// Metrics). The server owns the store's lifecycle; callers must not
// Close it.
func (s *Server) DB() *lsm.DB { return s.db }

func (s *Server) registerGauges(r *obs.Registry) {
	r.GaugeFunc("server_active_conns", func() float64 { return float64(s.active.Load()) })
	r.GaugeFunc("server_inflight", func() float64 { return float64(len(s.inflight)) })
	r.GaugeFunc("server_stalled", func() float64 {
		if s.stall.stalled() {
			return 1
		}
		return 0
	})
}

func (s *Server) acceptLoop() {
	defer s.connWg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stopc:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (EMFILE and friends): back off
			// briefly instead of spinning.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.connWg.Add(1)
		go s.serveConn(nc)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.connWg.Done()
	c := &conn{srv: s, nc: nc}
	if !s.addConn(c) {
		_ = nc.Close()
		return
	}
	s.met.connsOpened.Inc()
	s.active.Add(1)
	c.run()
	s.active.Add(-1)
	s.removeConn(c)
	s.met.connsClosed.Inc()
}

func (s *Server) addConn(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// Close drains and shuts the server down: mark draining (healthz flips to
// 503), stop accepting, stop reading new requests on every live
// connection, finish all in-flight requests and flush their responses,
// then close the store. Idempotent.
//
//fcae:chan-owner server.Server.stopc
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.draining.Store(true)
	close(s.stopc)
	_ = s.ln.Close()
	if s.admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.admin.Shutdown(ctx)
		cancel()
		_ = s.admin.Close()
	}
	// Half-close every connection's read side: in-flight requests keep
	// executing and their responses still go out, but no new frames are
	// consumed.
	for _, c := range conns {
		c.stopReading()
	}
	// Joining the connections joins every request handler, so no store
	// call is in flight when the store closes.
	s.connWg.Wait()
	s.wg.Wait()
	return s.db.Close()
}
