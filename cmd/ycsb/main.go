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
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"fcae"
	"fcae/cmd/internal/storeflags"
	"fcae/cmd/internal/target"
	"fcae/internal/workload"
)

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

	var store workload.Target
	var db *fcae.DB                        // nil in network mode
	busyRetries := func() int { return 0 } // writes the server shed and the client retried
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
		client := &target.Client{Client: cl}
		store, busyRetries = client, client.BusyRetries
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
		db, err = fcae.Open(*dir, opts)
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		store = target.DB{DB: db}
		fmt.Printf("fcae ycsb: backend=%s records=%d ops=%d value=%dB\n", sf.Backend, *records, *ops, *valueSize)
	}

	var inserts workload.Sequential
	for _, name := range strings.Split(strings.ToLower(*workloads), ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(workload.YCSB, func(w workload.Workload) bool { return strings.EqualFold(w.Name, name) })
		if i < 0 {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		w := workload.YCSB[i]
		n := *ops
		if w.Name == "Load" {
			n = *records
		}
		if err := run(store, busyRetries, w, n, *records, *valueSize, *seed, &inserts); err != nil {
			fatal(fmt.Errorf("workload %s: %w", w.Name, err))
		}
	}

	if *metrics {
		out, err := fetchMetrics(db, *addr, *adminAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s\n", out)
	}
}

// fetchMetrics returns the final metrics snapshot: the in-process
// registry, or (network mode) the serving process's /metrics document.
func fetchMetrics(db *fcae.DB, addr, adminAddr string) ([]byte, error) {
	if db != nil {
		return db.Metrics().JSON()
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

// run drives one workload. Every generator draws from one stream seeded
// by seed, so a run is a function of the seed alone.
func run(store workload.Target, busyRetries func() int, w workload.Workload, n, records, valueSize int, seed int64, inserts *workload.Sequential) error {
	rng := workload.NewRand(seed)
	s := &workload.Stream{
		Keys:       workload.NewKeyGen(16),
		Values:     workload.NewValueGenRand(valueSize, 0.5, rng),
		Mix:        workload.NewMixRand(w.Read, w.Update, w.Insert, w.Scan, w.RMW, rng),
		Inserts:    inserts,
		ScanLength: workload.ScanLength,
	}
	if w.Latest {
		s.Pick = workload.NewLatestRand(uint64(records), rng)
	} else {
		s.Pick = workload.NewZipfianRand(uint64(records), rng)
	}
	startRetries := busyRetries()
	r, err := workload.Run(store, s, n)
	if err != nil {
		return err
	}
	extra := ""
	if retries := busyRetries() - startRetries; retries > 0 {
		extra = fmt.Sprintf(", %d busy-retries", retries)
	}
	fmt.Printf("%-5s: %9.1f ops/sec (%d reads, %d writes, %d scans, %d not-found%s) in %s\n",
		w.Name, float64(n)/r.Elapsed.Seconds(), r.Reads, r.Writes, r.Scans, r.NotFound, extra, r.Elapsed.Round(time.Millisecond))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ycsb:", err)
	os.Exit(1)
}
