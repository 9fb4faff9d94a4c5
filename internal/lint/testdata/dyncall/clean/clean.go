// Package fixture: the two ways a call across a seam stays clean.
// Store.Snapshot holds Store.mu and samples through the module's Gauge
// seam; the call resolves to the one live implementation, Quiet.Sample,
// which neither locks nor blocks. Store.Shutdown holds the same lock
// across an io.Closer: a stdlib interface is not a module seam, so the
// call does not fan out to Pump.Close (a channel send) merely because the
// signatures match. Expected: clean.
package fixture

import (
	"io"
	"sync"
)

// Gauge is the sampling seam.
type Gauge interface{ Sample() }

// Store snapshots and shuts down under its mutex.
type Store struct {
	mu  sync.Mutex
	g   Gauge
	out io.Closer
}

// Snapshot samples with the lock held.
func (s *Store) Snapshot() {
	s.mu.Lock()
	s.g.Sample()
	s.mu.Unlock()
}

// Shutdown closes the sink with the lock held.
func (s *Store) Shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.Close()
}

// Quiet is the only live Gauge.
type Quiet struct{ n int64 }

// Sample implements Gauge without blocking.
func (q *Quiet) Sample() { q.n++ }

// Pump has a Close that blocks; nothing hands it to a Store.
type Pump struct{ done chan struct{} }

// Close signals the drain goroutine.
func (p *Pump) Close() error {
	p.done <- struct{}{}
	return nil
}

// Wait is the receiving side of done.
func (p *Pump) Wait() { <-p.done }

// New wires a store to its quiet gauge; pumps live elsewhere.
func New(out io.Closer) (*Store, *Pump) {
	return &Store{g: &Quiet{}, out: out}, &Pump{done: make(chan struct{})}
}
