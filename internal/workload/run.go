package workload

import "time"

// Target is what Run drives: the store in-process or a server over the
// wire, adapted in cmd/internal/target. Get reports a missing key as
// found == false, not as an error; Scan returns the entries it walked.
type Target interface {
	Get(key []byte) (found bool, err error)
	Put(key, value []byte) error
	Delete(key []byte) error
	Scan(start []byte, limit int) (int, error)
}

// Stream is one op stream: each op is Mix's pick, or Op when Mix is nil.
// Pick draws the key of every op but an insert, which takes Inserts' next
// index (and is observed by a Latest Pick). Writes carry Values, scans ask
// for ScanLength entries, and a closed Stop ends the run early.
type Stream struct {
	Mix        *Mix
	Op         Op
	Keys       *KeyGen
	Pick       Sequence
	Inserts    *Sequential
	Values     *ValueGen
	ScanLength int
	Stop       <-chan struct{}
}

// Result counts what one Run did. Found and NotFound split the reads, not
// counting RMW's; Entries is what the scans saw.
type Result struct {
	Ops, Reads, Writes, Scans int
	Found, NotFound, Entries  int
	Elapsed                   time.Duration
}

// Run issues up to n ops from s against t, stopping at the first error,
// which it returns with the counts so far.
func Run(t Target, s *Stream, n int) (r Result, err error) {
	start := time.Now()
	defer func() { r.Elapsed = time.Since(start) }()
	for ; r.Ops < n; r.Ops++ {
		if s.Stop != nil {
			select {
			case <-s.Stop:
				return r, nil
			default:
			}
		}
		op := s.Op
		if s.Mix != nil {
			op = s.Mix.Next()
		}
		var key []byte
		if op == OpInsert {
			id := s.Inserts.Next()
			if l, ok := s.Pick.(*Latest); ok {
				l.Observe(id)
			}
			key = s.Keys.Key(id)
		} else {
			key = s.Keys.Key(s.Pick.Next())
		}
		switch op {
		case OpRead:
			var found bool
			found, err = t.Get(key)
			r.Reads++
			if found {
				r.Found++
			} else {
				r.NotFound++
			}
		case OpUpdate, OpInsert:
			err = t.Put(key, s.Values.Value())
			r.Writes++
		case OpScan:
			var seen int
			seen, err = t.Scan(key, s.ScanLength)
			r.Scans++
			r.Entries += seen
		case OpRMW:
			if _, err = t.Get(key); err == nil {
				err = t.Put(key, s.Values.Value())
			}
			r.Reads++
			r.Writes++
		case OpDelete:
			err = t.Delete(key)
			r.Writes++
		}
		if err != nil {
			return r, err
		}
	}
	return r, nil
}
