// Command ycsb runs YCSB-style workloads (paper Table IX: Load, A-F)
// against the real store — in-process by default, or over the wire
// against a running fcaeserver with -addr.
//
// Usage:
//
//	ycsb [-db DIR] [-workloads load,a,b,c,d,e,f] [-records 100000]
//	     [-ops 100000] [-value_size 1024] [-seed 7] [-metrics] [store flags]
//	     [-addr host:port] [-admin host:port] [-client-conns 2] [-pipeline 128]
//
// The store flags (-backend, -engine_n, -engine_v, -compaction-workers,
// -device-channels, -fault-rate, -fault-seed, -arena-bytes) are the ones
// cmd/dbbench and cmd/fcaeserver take; see cmd/internal/storeflags.
// -metrics dumps the final metrics snapshot as JSON on stdout,
// machine-readable for BENCH_*.json tooling.
//
// Network mode: -addr drives the same workloads through the
// server/client wire protocol instead of the library; -db and the store
// flags belong to the server process and are rejected here. Writes shed by the server's admission control
// (busy) are retried with backoff and counted. With -metrics, the
// snapshot is scraped from the server's admin /metrics endpoint (-admin,
// default derived from -addr by incrementing the port), so it includes
// the server_* and dispatch_* instruments of the serving process.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"fcae"
	"fcae/cmd/internal/storeflags"
	"fcae/internal/workload"
)

type spec struct {
	name                            string
	read, update, insert, scan, rmw float64
	latest                          bool
}

var specs = map[string]spec{
	"load": {name: "Load", insert: 1},
	"a":    {name: "A", read: 0.5, update: 0.5},
	"b":    {name: "B", read: 0.95, update: 0.05},
	"c":    {name: "C", read: 1},
	"d":    {name: "D", read: 0.95, insert: 0.05, latest: true},
	"e":    {name: "E", scan: 0.95, insert: 0.05},
	"f":    {name: "F", read: 0.5, rmw: 0.5},
}

const scanLength = 50

// kv abstracts the workload's target so one driver serves both the
// in-process store and the wire client.
type kv interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
	// Scan walks up to limit entries from start, returning how many it saw.
	Scan(start []byte, limit int) (int, error)
	// BusyRetries reports writes that were shed with ErrServerBusy and
	// retried (always 0 in-process).
	BusyRetries() int
}

// dbKV is the in-process backend.
type dbKV struct {
	db *fcae.DB
}

func (d *dbKV) Get(key []byte) ([]byte, error) { return d.db.Get(key) }

func (d *dbKV) Put(key, value []byte) error { return d.db.Put(key, value) }

func (d *dbKV) Scan(start []byte, limit int) (int, error) {
	it, err := d.db.NewIterator()
	if err != nil {
		return 0, err
	}
	n := 0
	for ok := it.Seek(start); ok && n < limit; ok = it.Next() {
		n++
	}
	if err := it.Close(); err != nil {
		return n, err
	}
	return n, nil
}

func (d *dbKV) BusyRetries() int { return 0 }

// netKV drives a remote fcaeserver. Busy shedding (the server's
// stall-aware admission control) is retried with exponential backoff —
// exactly what a production client does during a write stall.
type netKV struct {
	cl      *fcae.Client
	retries int
}

const maxBusyRetries = 200

func (n *netKV) Get(key []byte) ([]byte, error) { return n.cl.Get(key) }

func (n *netKV) Put(key, value []byte) error {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		err := n.cl.Put(key, value)
		if !errors.Is(err, fcae.ErrServerBusy) || attempt >= maxBusyRetries {
			return err
		}
		n.retries++
		time.Sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

func (n *netKV) Scan(start []byte, limit int) (int, error) {
	kvs, err := n.cl.Scan(start, limit)
	return len(kvs), err
}

func (n *netKV) BusyRetries() int { return n.retries }

func main() {
	dir := flag.String("db", "", "database directory (default: a temp dir); in-process mode only")
	workloads := flag.String("workloads", "load,a,b,c,d,e,f", "comma-separated workload list")
	records := flag.Int("records", 100000, "records loaded before the mixed workloads")
	ops := flag.Int("ops", 100000, "operations per workload")
	valueSize := flag.Int("value_size", 1024, "value length in bytes")
	sf := storeflags.Register(flag.CommandLine)
	seed := flag.Int64("seed", 7, "workload RNG seed; every generator derives from this one stream")
	metrics := flag.Bool("metrics", false, "dump the final metrics snapshot as JSON")
	addr := flag.String("addr", "", "fcaeserver KV address; set to run over the wire instead of in-process")
	adminAddr := flag.String("admin", "", "fcaeserver admin address for -metrics scraping (default: -addr's port + 1)")
	clientConns := flag.Int("client-conns", 2, "network mode: client connection-pool size")
	pipeline := flag.Int("pipeline", 128, "network mode: max outstanding requests per connection")
	flag.Parse()

	var store kv
	if *addr != "" {
		given := sf.Given()
		if *dir != "" {
			given = append(given, "-db")
		}
		if len(given) > 0 {
			fatal(fmt.Errorf("%s: store flags conflict with -addr, set them on the fcaeserver process", strings.Join(given, ", ")))
		}
		cl, err := fcae.DialServer(fcae.ClientOptions{
			Addr:        *addr,
			Conns:       *clientConns,
			MaxPipeline: *pipeline,
		})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		store = &netKV{cl: cl}
		fmt.Printf("fcae ycsb: addr=%s records=%d ops=%d value=%dB\n", *addr, *records, *ops, *valueSize)
	} else {
		if *dir == "" {
			d, err := os.MkdirTemp("", "fcae-ycsb-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(d)
			*dir = d
		}
		opts, err := sf.Options()
		if err != nil {
			fatal(err)
		}
		db, err := fcae.Open(*dir, opts)
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		store = &dbKV{db: db}
		fmt.Printf("fcae ycsb: backend=%s records=%d ops=%d value=%dB\n", sf.Backend, *records, *ops, *valueSize)
	}

	inserted := uint64(0)
	for _, name := range strings.Split(strings.ToLower(*workloads), ",") {
		name = strings.TrimSpace(name)
		sp, ok := specs[name]
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		n := *ops
		if name == "load" {
			n = *records
		}
		if err := run(store, sp, n, *records, *valueSize, *seed, &inserted); err != nil {
			fatal(fmt.Errorf("workload %s: %w", sp.name, err))
		}
	}

	if *metrics {
		out, err := fetchMetrics(store, *addr, *adminAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s\n", out)
	}
}

// fetchMetrics returns the final metrics snapshot: the in-process
// registry, or (network mode) the serving process's /metrics document.
func fetchMetrics(store kv, addr, adminAddr string) ([]byte, error) {
	d, ok := store.(*dbKV)
	if ok {
		return d.db.Metrics().JSON()
	}
	if adminAddr == "" {
		derived, err := deriveAdminAddr(addr)
		if err != nil {
			return nil, fmt.Errorf("-metrics with -addr needs -admin (%w)", err)
		}
		adminAddr = derived
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// deriveAdminAddr mirrors fcaeserver's default port layout (admin = KV
// port + 1) when -admin isn't given.
func deriveAdminAddr(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", err
	}
	return net.JoinHostPort(host, strconv.Itoa(p+1)), nil
}

func run(store kv, sp spec, n, records, valueSize int, seed int64, inserted *uint64) error {
	rng := workload.NewRand(seed)
	keys := workload.NewKeyGen(16)
	values := workload.NewValueGenRand(valueSize, 0.5, rng)
	mix := workload.NewMixRand(sp.read, sp.update, sp.insert, sp.scan, sp.rmw, rng)
	var pick workload.Sequence
	latest := workload.NewLatestRand(uint64(records), rng)
	if sp.latest {
		pick = latest
	} else {
		pick = workload.NewZipfianRand(uint64(records), rng)
	}

	startRetries := store.BusyRetries()
	start := time.Now()
	var reads, writes, scans, notFound int
	for i := 0; i < n; i++ {
		op := mix.Next()
		if sp.name == "Load" {
			op = workload.OpInsert
		}
		switch op {
		case workload.OpRead:
			if _, err := store.Get(keys.Key(pick.Next())); errors.Is(err, fcae.ErrNotFound) {
				notFound++
			} else if err != nil {
				return err
			}
			reads++
		case workload.OpUpdate:
			if err := store.Put(keys.Key(pick.Next()), values.Value()); err != nil {
				return err
			}
			writes++
		case workload.OpInsert:
			id := *inserted
			*inserted++
			latest.Observe(id)
			if err := store.Put(keys.Key(id), values.Value()); err != nil {
				return err
			}
			writes++
		case workload.OpScan:
			if _, err := store.Scan(keys.Key(pick.Next()), scanLength); err != nil {
				return err
			}
			scans++
		case workload.OpRMW:
			k := append([]byte(nil), keys.Key(pick.Next())...)
			if _, err := store.Get(k); err != nil && !errors.Is(err, fcae.ErrNotFound) {
				return err
			}
			if err := store.Put(k, values.Value()); err != nil {
				return err
			}
			reads++
			writes++
		}
	}
	elapsed := time.Since(start)
	extra := ""
	if r := store.BusyRetries() - startRetries; r > 0 {
		extra = fmt.Sprintf(", %d busy-retries", r)
	}
	fmt.Printf("%-5s: %9.1f ops/sec (%d reads, %d writes, %d scans, %d not-found%s) in %s\n",
		sp.name, float64(n)/elapsed.Seconds(), reads, writes, scans, notFound, extra, elapsed.Round(time.Millisecond))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ycsb:", err)
	os.Exit(1)
}
