// Fixture: close grants that grant nothing. Close holds a declared
// //fcae:chan-owner grant for stop and uses it; Drain carries one for
// jobs and never closes it, and New carries one for the channel it makes
// itself, where the make site already is the ownership. A grant nobody
// needs reads as documentation of a hand-off that does not exist. The
// last one floats free of any function and so names no holder at all.
package unusedowner

type Pool struct {
	jobs chan int
	stop chan struct{}
}

// New makes both channels.
//
//fcae:chan-owner unusedowner.Pool.jobs
func New() *Pool {
	p := &Pool{jobs: make(chan int, 8), stop: make(chan struct{})}
	if cap(p.jobs) == 0 {
		close(p.jobs)
	}
	return p
}

func (p *Pool) submit(j int) bool {
	select {
	case p.jobs <- j:
		return true
	case <-p.stop:
		return false
	}
}

// Drain empties the queue.
//
//fcae:chan-owner unusedowner.Pool.jobs
func (p *Pool) Drain() int {
	n := 0
	for {
		select {
		case <-p.jobs:
			n++
		default:
			return n
		}
	}
}

// Close stops the pool.
//
//fcae:chan-owner unusedowner.Pool.stop
func (p *Pool) Close() { close(p.stop) }

//fcae:chan-owner unusedowner.Pool.stop

var _ = New
