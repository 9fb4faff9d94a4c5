// Command fcaeserver serves an fcae store over TCP: the pipelined binary
// KV protocol on -addr, and an HTTP admin plane (/metrics, /healthz,
// /stats) on -admin. SIGINT/SIGTERM drain gracefully: accepting stops,
// in-flight requests finish, then the store closes.
//
// Usage:
//
//	fcaeserver -db DIR [-addr 127.0.0.1:4490] [-admin 127.0.0.1:4491]
//	           [-backend cpu|fcae] [-engine_n 9] [-engine_v 8]
//	           [-compaction-workers 1] [-device-channels 1] [-fault-rate 0.0]
//	           [-arena-bytes 0]
//	           [-max-inflight 256] [-max-scan 1024]
//
// The store flags mirror cmd/dbbench so a served store and a library
// benchmark run the same offload configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fcae"
)

func main() {
	dir := flag.String("db", "", "database directory (required)")
	addr := flag.String("addr", "127.0.0.1:4490", "KV protocol listen address")
	admin := flag.String("admin", "127.0.0.1:4491", "HTTP admin listen address (empty disables)")
	backend := flag.String("backend", "cpu", "compaction backend: cpu or fcae")
	engineN := flag.Int("engine_n", 9, "FCAE decoder lanes")
	engineV := flag.Int("engine_v", 8, "FCAE value lane width")
	workers := flag.Int("compaction-workers", 1, "concurrent background compaction workers")
	channels := flag.Int("device-channels", 1, "device channels behind the scheduler; backend=fcae only")
	faultRate := flag.Float64("fault-rate", 0, "device fault injection probability [0,1); backend=fcae only")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector RNG seed")
	arenaBytes := flag.Int64("arena-bytes", 0, "per-channel device staging arena size; backend=fcae only")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently-executing requests (0 = default 256)")
	maxScan := flag.Int("max-scan", 0, "max entries per SCAN (0 = default 1024)")
	flag.Parse()

	if *dir == "" {
		fatal(fmt.Errorf("-db is required"))
	}

	// -compaction-workers counts merge compactors; the pool has one more
	// worker, which keeps a slot free for flushes.
	var opts fcae.Options
	opts.DispatchConfig.Workers = *workers + 1
	switch *backend {
	case "fcae":
		cfg := fcae.MultiInputEngineConfig()
		cfg.N = *engineN
		cfg.V = *engineV
		cfg.StagingBytes = *arenaBytes
		if *channels < 1 {
			fatal(fmt.Errorf("-device-channels must be >= 1, got %d", *channels))
		}
		devs := make([]fcae.CompactionExecutor, *channels)
		for i := range devs {
			exec, err := fcae.NewEngineExecutor(cfg)
			if err != nil {
				fatal(err)
			}
			devs[i] = exec
		}
		opts.DispatchConfig.Devices = devs
		if *faultRate > 0 {
			opts.DispatchConfig.FaultInjector = fcae.NewProbInjector(*faultSeed, *faultRate)
		}
	case "cpu":
		if *faultRate > 0 {
			fatal(fmt.Errorf("-fault-rate requires -backend fcae"))
		}
		if *arenaBytes != 0 {
			fatal(fmt.Errorf("-arena-bytes requires -backend fcae"))
		}
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}

	srv, err := fcae.OpenServer(*dir, opts, fcae.ServerConfig{
		Addr:           *addr,
		AdminAddr:      *admin,
		MaxInFlight:    *maxInflight,
		MaxScanEntries: *maxScan,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fcaeserver: serving %s on %s", *dir, srv.Addr())
	if a := srv.AdminAddr(); a != nil {
		fmt.Printf(" (admin %s)", a)
	}
	fmt.Printf(" backend=%s workers=%d channels=%d\n", *backend, *workers, *channels)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("fcaeserver: %s — draining\n", got)
	start := time.Now()
	if err := srv.Close(); err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	fmt.Printf("fcaeserver: drained and closed in %s\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fcaeserver:", err)
	os.Exit(1)
}
