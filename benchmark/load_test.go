package main

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"fcae"
)

func TestOpStreamDeterministic(t *testing.T) {
	m := mix{get: 0.4, put: 0.4, scan: 0.15, insert: 0.05}
	a := opStream(3, 1, 4, 2, 5000, m, distZipfian, 10_000)
	b := opStream(3, 1, 4, 2, 5000, m, distZipfian, 10_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, client, round) gave different streams")
	}
	for name, other := range map[string][]op{
		"seed":   opStream(4, 1, 4, 2, 5000, m, distZipfian, 10_000),
		"client": opStream(3, 2, 4, 2, 5000, m, distZipfian, 10_000),
		"round":  opStream(3, 1, 4, 3, 5000, m, distZipfian, 10_000),
	} {
		if reflect.DeepEqual(a, other) {
			t.Errorf("changing the %s left the stream unchanged", name)
		}
	}
	var kinds [4]int
	for _, o := range a {
		kinds[o.kind]++
		switch o.kind {
		case opGet, opPut:
			if o.id%4 != 1 || o.id >= 10_000 {
				t.Fatalf("client 1 of 4 was given key %d", o.id)
			}
		case opScan:
			if o.id > 10_000-scanLen {
				t.Fatalf("scan from %d leaves fewer than %d keys", o.id, scanLen)
			}
		}
	}
	for k, want := range []float64{0.4, 0.4, 0.15, 0.05} {
		if got := float64(kinds[k]) / 5000; got < want-0.03 || got > want+0.03 {
			t.Errorf("op kind %d share %.3f, want about %.2f", k, got, want)
		}
	}
}

// mapTarget is a correct in-memory store, with switches to misbehave.
type mapTarget struct {
	mu      sync.Mutex
	data    map[string][]byte
	corrupt bool // flip a byte of every GET result
	cross   bool // answer GETs with another key's value
	forget  bool // acknowledge PUTs without applying them
	busy    int  // shed this many PUTs first
}

func (m *mapTarget) get(key []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := string(key)
	if m.cross {
		id, _ := parseKey(key)
		k = string(appendKey(nil, id+1))
	}
	v, ok := m.data[k]
	if !ok {
		return nil, fcae.ErrNotFound
	}
	v = append([]byte(nil), v...)
	if m.corrupt {
		v[len(v)-1] ^= 1
	}
	return v, nil
}

func (m *mapTarget) put(key, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.busy > 0 {
		m.busy--
		return fcae.ErrServerBusy
	}
	if !m.forget {
		m.data[string(key)] = append([]byte(nil), value...)
	}
	return nil
}

func (m *mapTarget) scan(start []byte, limit int) ([]fcae.KV, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var keys []string
	for k := range m.data {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []fcae.KV
	for _, k := range keys[:min(limit, len(keys))] {
		out = append(out, fcae.KV{Key: []byte(k), Value: m.data[k]})
	}
	return out, nil
}

func loadedTarget(c *client) *mapTarget {
	m := &mapTarget{data: map[string][]byte{}}
	for id := uint64(0); id < c.records; id++ {
		m.data[string(appendKey(nil, id))] = c.codec.encode(nil, id, 1, c.valueSize)
	}
	return m
}

func TestClientCountsFailures(t *testing.T) {
	const records = 400
	ops := opStream(1, 0, 1, 0, 600, mix{get: 0.45, put: 0.35, scan: 0.15, insert: 0.05}, distUniform, records)
	run := func(mutate func(*mapTarget)) *tally {
		c := newClient(0, 1, records, 64, newValueCodec(1), 1)
		tg := loadedTarget(c)
		mutate(tg)
		out := &tally{}
		c.run(tg, ops, nil, 1, out)
		if out.ops != int64(len(ops)) {
			t.Fatalf("ran %d of %d ops", out.ops, len(ops))
		}
		return out
	}
	if out := run(func(*mapTarget) {}); out.failed != 0 {
		t.Fatalf("correct store: %d failures, first: %v", out.failed, out.firstErr)
	}
	for name, mutate := range map[string]func(*mapTarget){
		"corrupted results":        func(m *mapTarget) { m.corrupt = true },
		"cross-key results":        func(m *mapTarget) { m.cross = true },
		"lost acknowledged writes": func(m *mapTarget) { m.forget = true },
	} {
		if out := run(mutate); out.failed == 0 {
			t.Errorf("%s went unnoticed", name)
		}
	}
	out := run(func(m *mapTarget) { m.busy = 3 })
	if out.failed != 0 || out.busyRetries != 3 {
		t.Errorf("busy shedding: %d failures, %d retries counted; want 0 and 3", out.failed, out.busyRetries)
	}
}

func TestCheckScan(t *testing.T) {
	c := newClient(0, 1, 200, 64, newValueCodec(1), 1)
	tg := loadedTarget(c)
	kvs, _ := tg.scan(appendKey(nil, 10), scanLen)
	if _, err := c.checkScan(10, kvs); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	if _, err := c.checkScan(10, kvs[:scanLen-1]); err == nil {
		t.Error("short scan accepted")
	}
	if _, err := c.checkScan(11, kvs); err == nil {
		t.Error("scan starting before its bound accepted")
	}
	swapped := append([]fcae.KV(nil), kvs...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if _, err := c.checkScan(10, swapped); err == nil {
		t.Error("unordered scan accepted")
	}
	c.acked[20] = 2 // this client has seen version 2 of key 20 acknowledged
	if _, err := c.checkScan(10, kvs); err == nil {
		t.Error("scan returning a stale version accepted")
	}
}
