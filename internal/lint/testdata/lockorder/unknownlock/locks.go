// Fixture: a //fcae:lock-order directive that outlived a rename. The
// event mutex is evMu; the directive still says evMux, so it declares an
// order between a lock that does not exist and one that does, and the
// acquisition in bad() that contradicts the intended order goes
// unreported (compare ../declared, where it is). The directive itself is
// the finding.
package locks

import "sync"

type Store struct {
	//fcae:lock-order locks.Store.evMux -> locks.Store.mu
	evMu sync.Mutex
	mu   sync.Mutex
}

func (s *Store) bad() {
	s.mu.Lock()
	s.evMu.Lock()
	s.evMu.Unlock()
	s.mu.Unlock()
}
