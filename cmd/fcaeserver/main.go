// Command fcaeserver serves an fcae store over TCP: the pipelined binary
// KV protocol on -addr, and an HTTP admin plane (/metrics, /healthz,
// /stats) on -admin. SIGINT/SIGTERM drain gracefully: accepting stops,
// in-flight requests finish, then the store closes.
//
// Usage:
//
//	fcaeserver -db DIR [-addr 127.0.0.1:4490] [-admin 127.0.0.1:4491]
//	           [-max-inflight 256] [-max-scan 1024] [store flags]
//
// The store flags (-backend, -engine_n, -engine_v, -compaction-workers,
// -device-channels, -fault-rate, -fault-seed, -arena-bytes) are the ones
// cmd/dbbench and cmd/ycsb take; see cmd/internal/storeflags.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fcae"
	"fcae/cmd/internal/storeflags"
)

func main() {
	dir := flag.String("db", "", "database directory (required)")
	addr := flag.String("addr", "127.0.0.1:4490", "KV protocol listen address")
	admin := flag.String("admin", "127.0.0.1:4491", "HTTP admin listen address (empty disables)")
	store := storeflags.Register(flag.CommandLine)
	maxInflight := flag.Int("max-inflight", 0, "max concurrently-executing requests (0 = default 256)")
	maxScan := flag.Int("max-scan", 0, "max entries per SCAN (0 = default 1024)")
	flag.Parse()

	if *dir == "" {
		fatal(fmt.Errorf("-db is required"))
	}

	opts, err := store.Options()
	if err != nil {
		fatal(err)
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
	fmt.Printf(" backend=%s workers=%d channels=%d\n", store.Backend, store.Workers, store.Channels)

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
