package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fcae"
	"fcae/internal/workload"
)

// opKind is what a logical client asks for.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	opInsert // PUT of a key that does not exist yet
)

// class groups samples the way a caller sees them: reads, writes, scans.
type class int

const (
	classRead class = iota
	classWrite
	classScan
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

func (k opKind) class() class {
	switch k {
	case opGet:
		return classRead
	case opScan:
		return classScan
	}
	return classWrite
}

// op is one request: its kind and the key id it targets (unused for
// inserts, whose id is the client's next fresh one).
type op struct {
	kind opKind
	id   uint64
}

// mix is the share of each op kind in a stream.
type mix struct{ get, put, scan, insert float64 }

type keyDist int

const (
	distZipfian keyDist = iota
	distUniform
)

const scanLen = 50

// streamSeed derives the seed of one (client, round) stream from the run
// seed, so each stream is a pure function of (-seed, client, round).
func streamSeed(seed int64, client, round int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9 + uint64(round+1)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return int64(x >> 1)
}

// opStream generates the n ops logical client `client` of `clients` sends
// in round `round`. GETs and PUTs stay inside the client's own partition
// of the records preloaded keys (ids congruent to client modulo clients),
// which is what lets every read be checked against the version this
// client last saw acknowledged. SCANs start anywhere that leaves scanLen
// preloaded keys ahead, so the result count is known.
func opStream(seed int64, client, clients, round, n int, m mix, dist keyDist, records uint64) []op {
	rng := rand.New(rand.NewSource(streamSeed(seed, client, round)))
	// Built only when the mix needs them: a zipfian sampler's set-up is
	// linear in its range.
	var pick, pickScan workload.Sequence
	sampler := func(n uint64) workload.Sequence {
		if dist == distZipfian {
			return workload.NewZipfianRand(n, rng)
		}
		return workload.NewUniformRand(n, rng)
	}
	if m.get+m.put > 0 {
		pick = sampler(records / uint64(clients))
	}
	if m.scan > 0 {
		pickScan = sampler(records - scanLen)
	}
	ops := make([]op, n)
	for i := range ops {
		u := rng.Float64()
		switch {
		case u < m.get:
			ops[i] = op{opGet, pick.Next()*uint64(clients) + uint64(client)}
		case u < m.get+m.put:
			ops[i] = op{opPut, pick.Next()*uint64(clients) + uint64(client)}
		case u < m.get+m.put+m.scan:
			ops[i] = op{opScan, pickScan.Next()}
		default:
			ops[i] = op{kind: opInsert}
		}
	}
	return ops
}

// target is the thing a logical client talks to: the wire client, or the
// store itself in the direct replay and in embed-store.
type target interface {
	get(key []byte) ([]byte, error)
	put(key, value []byte) error
	scan(start []byte, limit int) ([]fcae.KV, error)
}

// wireTarget sends every op through the network client.
type wireTarget struct{ cl *fcae.Client }

func (w wireTarget) get(key []byte) ([]byte, error) { return w.cl.Get(key) }
func (w wireTarget) put(key, value []byte) error    { return w.cl.Put(key, value) }
func (w wireTarget) scan(start []byte, limit int) ([]fcae.KV, error) {
	return w.cl.Scan(start, limit)
}

// storeTarget calls the store's public methods with no timers of its own:
// the untraced embed-store run.
type storeTarget struct{ db *fcae.DB }

func (s storeTarget) get(key []byte) ([]byte, error) { return s.db.Get(key) }
func (s storeTarget) put(key, value []byte) error    { return s.db.Put(key, value) }
func (s storeTarget) scan(start []byte, limit int) ([]fcae.KV, error) {
	it, err := s.db.NewIterator()
	if err != nil {
		return nil, err
	}
	out := make([]fcae.KV, 0, limit)
	for ok := it.Seek(start); ok && len(out) < limit; ok = it.Next() {
		out = append(out, fcae.KV{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	iterErr := it.Error()
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, iterErr
}

// layerTimes sums the time spent inside each store call of a direct
// target, one counter pair per call kind.
type layerTimes struct {
	putNanos, puts           int64
	getNanos, gets           int64
	nextNanos, nexts         int64
	closeNanos, closes       int64
	openSamples, seekSamples latencies // per call, for medians
}

// directTarget calls the store's public methods and times each call
// separately; with a span buffer it also records each call as a child of
// the request span the client is about to close.
type directTarget struct {
	db     *fcae.DB
	times  *layerTimes
	buf    *spanBuf
	parent uint64 // reserved id of the current request's root span
	req    uint64
}

func (d *directTarget) get(key []byte) ([]byte, error) {
	t0 := time.Now()
	v, err := d.db.Get(key)
	t1 := time.Now()
	d.times.getNanos += t1.Sub(t0).Nanoseconds()
	d.times.gets++
	d.buf.add("lsm.get", d.parent, d.req, t0, t1)
	return v, err
}

func (d *directTarget) put(key, value []byte) error {
	t0 := time.Now()
	err := d.db.Put(key, value)
	t1 := time.Now()
	d.times.putNanos += t1.Sub(t0).Nanoseconds()
	d.times.puts++
	d.buf.add("lsm.put", d.parent, d.req, t0, t1)
	return err
}

func (d *directTarget) scan(start []byte, limit int) ([]fcae.KV, error) {
	lt := d.times
	t0 := time.Now()
	it, err := d.db.NewIterator()
	t1 := time.Now()
	lt.openSamples = append(lt.openSamples, t1.Sub(t0).Nanoseconds())
	d.buf.add("lsm.iter_open", d.parent, d.req, t0, t1)
	if err != nil {
		return nil, err
	}
	ok := it.Seek(start)
	t2 := time.Now()
	lt.seekSamples = append(lt.seekSamples, t2.Sub(t1).Nanoseconds())
	d.buf.add("lsm.iter_seek", d.parent, d.req, t1, t2)
	out := make([]fcae.KV, 0, limit)
	for ok && len(out) < limit {
		out = append(out, fcae.KV{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		if len(out) == limit {
			break
		}
		tn := time.Now()
		ok = it.Next()
		lt.nextNanos += time.Since(tn).Nanoseconds()
		lt.nexts++
	}
	t3 := time.Now()
	d.buf.add("lsm.iter_next", d.parent, d.req, t2, t3)
	iterErr := it.Error()
	closeErr := it.Close()
	t4 := time.Now()
	lt.closeNanos += t4.Sub(t3).Nanoseconds()
	lt.closes++
	d.buf.add("lsm.iter_close", d.parent, d.req, t3, t4)
	if iterErr != nil {
		return nil, iterErr
	}
	return out, closeErr
}

// The busy back-off is the one cmd/ycsb uses: start at 1 ms, double to a
// 64 ms cap, give up after 200 tries.
const (
	busyBackoffStart = time.Millisecond
	busyBackoffCap   = 64 * time.Millisecond
	maxBusyRetries   = 200
)

// client is one logical client: a closed loop that sends its next op when
// the previous one is answered, and the state needed to check answers.
type client struct {
	idx, clients int
	records      uint64 // preloaded key ids are [0, records)
	valueSize    int
	codec        *valueCodec
	// acked[i] is the last acknowledged version of owned key i (id
	// i*clients+idx); 0 means never written.
	acked []uint32
	// inserted counts the fresh keys this client has added; the n-th has
	// id records + n*clients + idx and version 1.
	inserted uint64
	// expectScan returns how many entries a scan from id must return.
	expectScan func(id uint64) int

	key, val []byte
}

func newClient(idx, clients int, records uint64, valueSize int, codec *valueCodec, preloadedVersion uint32) *client {
	c := &client{idx: idx, clients: clients, records: records, valueSize: valueSize, codec: codec}
	c.acked = make([]uint32, (records+uint64(clients)-1)/uint64(clients))
	for i := range c.acked {
		c.acked[i] = preloadedVersion
	}
	c.expectScan = func(uint64) int { return scanLen }
	return c
}

func (c *client) owns(id uint64) bool {
	return id < c.records && id%uint64(c.clients) == uint64(c.idx)
}

// tally is what one client measured in one round.
type tally struct {
	lat         [numClasses]latencies
	ops         int64
	failed      int64
	busyRetries int64
	userBytes   int64
	maxNanos    int64
	firstErr    error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
	}
	t.ops += o.ops
	t.failed += o.failed
	t.busyRetries += o.busyRetries
	t.userBytes += o.userBytes
	t.maxNanos = max(t.maxNanos, o.maxNanos)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// run sends ops to tg one after another, timing each from just before the
// call to just after the reply, and checks every reply. Checking happens
// outside the timed interval. buf, when set, gets one root span per op
// named after the op, its id the request sequence number.
func (c *client) run(tg target, ops []op, buf *spanBuf, reqBase uint64, out *tally) {
	dt, _ := tg.(*directTarget)
	for i, o := range ops {
		req := reqBase + uint64(i)
		var root uint64
		if buf != nil {
			root = buf.reserve()
			if dt != nil {
				dt.parent, dt.req = root, req
			}
		}
		var t0, t1 time.Time
		switch o.kind {
		case opGet:
			c.key = appendKey(c.key[:0], o.id)
			t0 = time.Now()
			v, err := tg.get(c.key)
			t1 = time.Now()
			if err != nil {
				out.fail(fmt.Errorf("get %d: %w", o.id, err))
				break
			}
			out.userBytes += int64(keyLen + len(v))
			if _, err := c.codec.check(v, o.id, uint64(c.acked[o.id/uint64(c.clients)])); err != nil {
				out.fail(fmt.Errorf("get %d: %w", o.id, err))
			}
		case opPut, opInsert:
			id, version := o.id, uint64(1)
			if o.kind == opInsert {
				id = c.records + c.inserted*uint64(c.clients) + uint64(c.idx)
			} else {
				version = uint64(c.acked[id/uint64(c.clients)]) + 1
			}
			c.key = appendKey(c.key[:0], id)
			c.val = c.codec.encode(c.val[:0], id, version, c.valueSize)
			t0 = time.Now()
			retries, err := putRetry(tg, c.key, c.val)
			t1 = time.Now()
			out.busyRetries += int64(retries)
			if err != nil {
				out.fail(fmt.Errorf("put %d: %w", id, err))
				break
			}
			out.userBytes += int64(keyLen + len(c.val))
			if o.kind == opInsert {
				c.inserted++
			} else {
				c.acked[id/uint64(c.clients)] = uint32(version)
			}
		case opScan:
			c.key = appendKey(c.key[:0], o.id)
			t0 = time.Now()
			kvs, err := tg.scan(c.key, scanLen)
			t1 = time.Now()
			if err != nil {
				out.fail(fmt.Errorf("scan %d: %w", o.id, err))
				break
			}
			n, err := c.checkScan(o.id, kvs)
			out.userBytes += n
			if err != nil {
				out.fail(fmt.Errorf("scan %d: %w", o.id, err))
			}
		}
		d := t1.Sub(t0).Nanoseconds()
		out.lat[o.kind.class()] = append(out.lat[o.kind.class()], d)
		out.maxNanos = max(out.maxNanos, d)
		out.ops++
		if buf != nil {
			buf.finish(root, "client."+classNames[o.kind.class()], 0, 0, req, t0, t1)
		}
	}
}

// putRetry sends one PUT, retrying while the server sheds it as busy.
func putRetry(tg target, key, val []byte) (retries int, err error) {
	backoff := busyBackoffStart
	for {
		err = tg.put(key, val)
		if !errors.Is(err, fcae.ErrServerBusy) || retries >= maxBusyRetries {
			return retries, err
		}
		retries++
		time.Sleep(backoff)
		backoff = min(backoff*2, busyBackoffCap)
	}
}

// checkScan verifies a scan that started at key id: the expected count,
// the start bound, strictly ascending keys, and every value intact, in
// its own key, and no older than this client acknowledged. It returns
// the user bytes the scan carried.
func (c *client) checkScan(start uint64, kvs []fcae.KV) (int64, error) {
	var bytesSeen int64
	if want := c.expectScan(start); len(kvs) != want {
		return 0, fmt.Errorf("returned %d entries, want %d", len(kvs), want)
	}
	var prev []byte
	for i, kv := range kvs {
		bytesSeen += int64(len(kv.Key) + len(kv.Value))
		id, ok := parseKey(kv.Key)
		if !ok {
			return bytesSeen, fmt.Errorf("entry %d: malformed key %q", i, kv.Key)
		}
		if id < start {
			return bytesSeen, fmt.Errorf("entry %d: key %d precedes the start bound", i, id)
		}
		if prev != nil && bytes.Compare(prev, kv.Key) >= 0 {
			return bytesSeen, fmt.Errorf("entry %d: keys not ascending", i)
		}
		prev = kv.Key
		minVersion := uint64(0)
		if c.owns(id) {
			minVersion = uint64(c.acked[id/uint64(c.clients)])
		}
		if _, err := c.codec.check(kv.Value, id, minVersion); err != nil {
			return bytesSeen, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return bytesSeen, nil
}

// verifyStore walks the whole store and checks it against what the
// clients saw acknowledged: every preloaded and inserted key present, in
// order, intact, and at its last acknowledged version or later. It
// returns the number of keys checked and the number that failed.
func verifyStore(db *fcae.DB, clients []*client) (checked, failed int64, firstErr error) {
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	n := len(clients)
	records := clients[0].records
	maxInserted := uint64(0)
	for _, c := range clients {
		maxInserted = max(maxInserted, c.inserted)
	}
	// expected yields the live ids in ascending order.
	next := uint64(0)
	limit := records + maxInserted*uint64(n)
	advance := func() (uint64, bool) {
		for next < limit {
			id := next
			next++
			c := clients[id%uint64(n)]
			if id < records {
				if c.acked[id/uint64(n)] > 0 {
					return id, true
				}
				continue
			}
			if (id-records)/uint64(n) < c.inserted {
				return id, true
			}
		}
		return 0, false
	}
	it, err := db.NewIterator()
	if err != nil {
		return 0, 1, err
	}
	ok := it.First()
	for ; ; ok = it.Next() {
		want, more := advance()
		if !more {
			if ok {
				fail(fmt.Errorf("store holds unexpected key %q", it.Key()))
			}
			break
		}
		checked++
		if !ok {
			fail(fmt.Errorf("key %d is missing", want))
			break
		}
		got, valid := parseKey(it.Key())
		if !valid || got != want {
			fail(fmt.Errorf("expected key %d, store has %q", want, it.Key()))
			break // the two sequences are out of step; later keys would all mismatch
		}
		minVersion := uint64(1)
		if want < records {
			minVersion = uint64(clients[want%uint64(n)].acked[want/uint64(n)])
		}
		if _, err := clients[0].codec.check(it.Value(), want, minVersion); err != nil {
			fail(err)
		}
	}
	if err := it.Error(); err != nil {
		fail(err)
	}
	if err := it.Close(); err != nil {
		fail(err)
	}
	return checked, failed, firstErr
}
