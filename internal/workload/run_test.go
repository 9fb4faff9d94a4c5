package workload

import (
	"errors"
	"sort"
	"testing"
)

// mapTarget is an in-memory Target; fail, when set, fails every op.
type mapTarget struct {
	m     map[string]string
	fail  error
	calls int
}

func (t *mapTarget) Get(key []byte) (bool, error) {
	t.calls++
	_, ok := t.m[string(key)]
	return ok, t.fail
}

func (t *mapTarget) Put(key, value []byte) error {
	t.calls++
	t.m[string(key)] = string(value)
	return t.fail
}

func (t *mapTarget) Delete(key []byte) error {
	t.calls++
	delete(t.m, string(key))
	return t.fail
}

func (t *mapTarget) Scan(start []byte, limit int) (int, error) {
	t.calls++
	var after []string
	for k := range t.m {
		if k >= string(start) {
			after = append(after, k)
		}
	}
	sort.Strings(after)
	return min(len(after), limit), t.fail
}

// TestRunCounts: each op kind lands in its counters and inserts take
// fresh keys.
func TestRunCounts(t *testing.T) {
	t.Parallel()
	tg := &mapTarget{m: map[string]string{}}
	keys := NewKeyGen(16)
	run := func(s *Stream, n int) Result {
		t.Helper()
		s.Keys, s.Values = keys, NewValueGen(8, 0.5, 1)
		r, err := Run(tg, s, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Ops != n || r.Elapsed <= 0 {
			t.Fatalf("Ops %d in %v, want %d", r.Ops, r.Elapsed, n)
		}
		return r
	}
	inserts := &Sequential{}
	if r := run(&Stream{Op: OpInsert, Inserts: inserts}, 100); r.Writes != 100 || len(tg.m) != 100 {
		t.Fatalf("load: %+v, %d keys", r, len(tg.m))
	}
	if r := run(&Stream{Op: OpRead, Pick: NewUniform(200, 1)}, 1000); r.Reads != 1000 || r.Found+r.NotFound != 1000 || r.Found == 0 || r.NotFound == 0 {
		t.Fatalf("reads over half-loaded keys: %+v", r)
	}
	if r := run(&Stream{Op: OpScan, Pick: &Sequential{}, ScanLength: 10}, 95); r.Scans != 95 || r.Entries != 91*10+9+8+7+6 {
		t.Fatalf("scans: %+v", r)
	}
	if r := run(&Stream{Op: OpRMW, Pick: NewUniform(100, 2)}, 50); r.Reads != 50 || r.Writes != 50 || r.NotFound != 0 {
		t.Fatalf("RMW: %+v", r)
	}
	if r := run(&Stream{Op: OpDelete, Pick: &Sequential{}}, 40); r.Writes != 40 || len(tg.m) != 60 {
		t.Fatalf("deletes: %+v, %d keys left", r, len(tg.m))
	}
	latest := NewLatest(100, 3)
	run(&Stream{Mix: NewMix(0, 0, 1, 0, 0, 4), Pick: latest, Inserts: inserts}, 10)
	if latest.MaxKey != 109 || len(tg.m) != 70 {
		t.Fatalf("mixed inserts: latest key %d, %d keys", latest.MaxKey, len(tg.m))
	}
}

// TestRunStops: the first error ends the run with the counts so far, and
// a closed Stop ends it before its next op.
func TestRunStops(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	tg := &mapTarget{m: map[string]string{}, fail: boom}
	s := &Stream{Op: OpRead, Keys: NewKeyGen(16), Pick: &Sequential{}}
	if r, err := Run(tg, s, 10); err != boom || r.Ops != 0 || tg.calls != 1 {
		t.Fatalf("failing target: %+v, %v after %d calls", r, err, tg.calls)
	}
	tg.fail = nil
	stop := make(chan struct{})
	close(stop)
	s.Stop = stop
	if r, err := Run(tg, s, 10); err != nil || r.Ops != 0 || tg.calls != 1 {
		t.Fatalf("stopped run: %+v, %v after %d calls", r, err, tg.calls)
	}
}
