// Package storeflags is the one place the store's offload flags are
// defined: cmd/dbbench, cmd/ycsb and cmd/fcaeserver register the same
// eight flags through it and build the same fcae.Options from them, so a
// served store, a library benchmark and a YCSB run given the same flags
// run the same configuration.
//
//	[-backend cpu|fcae] [-engine_n 9] [-engine_v 8] [-compaction-workers 1]
//	[-device-channels 1] [-fault-rate 0.0] [-fault-seed 1] [-arena-bytes 0]
//
// -device-channels builds that many independent engine instances behind
// the offload scheduler; -compaction-workers runs that many background
// compactors against them; -fault-rate injects device faults (errors,
// mid-merge write failures, stalls) at the given probability, exercising
// the CPU-fallback path; -arena-bytes sizes each channel's persistent
// device-memory staging arena (0 = modeled default).
// The device flags need -backend fcae.
package storeflags

import (
	"errors"
	"flag"
	"fmt"

	"fcae"
)

// Flags holds the parsed store flags.
type Flags struct {
	Backend    string
	EngineN    int
	EngineV    int
	Workers    int
	Channels   int
	FaultRate  float64
	FaultSeed  int64
	ArenaBytes int64

	fs  *flag.FlagSet // where Register defined the flags
	own *flag.FlagSet // the store flags alone, so Given can tell them apart
}

// Register defines the store flags on fs and returns where they parse to.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs, own: flag.NewFlagSet("store", flag.ContinueOnError)}
	f.own.StringVar(&f.Backend, "backend", "cpu", "compaction backend: cpu or fcae")
	f.own.IntVar(&f.EngineN, "engine_n", 9, "FCAE decoder lanes; backend=fcae only")
	f.own.IntVar(&f.EngineV, "engine_v", 8, "FCAE value lane width; backend=fcae only")
	f.own.IntVar(&f.Workers, "compaction-workers", 1, "concurrent background compaction workers")
	f.own.IntVar(&f.Channels, "device-channels", 1, "device channels (engine instances) behind the scheduler; backend=fcae only")
	f.own.Float64Var(&f.FaultRate, "fault-rate", 0, "device fault injection probability [0,1); backend=fcae only")
	f.own.Int64Var(&f.FaultSeed, "fault-seed", 1, "fault injector RNG seed")
	f.own.Int64Var(&f.ArenaBytes, "arena-bytes", 0, "per-channel device staging arena size (0 = modeled default); backend=fcae only")
	f.own.VisitAll(func(fl *flag.Flag) { fs.Var(fl.Value, fl.Name, fl.Usage) })
	return f
}

// Given returns the store flags that were set on the command line, for a
// command mode in which the store belongs to another process.
func (f *Flags) Given() []string {
	var names []string
	f.fs.Visit(func(fl *flag.Flag) {
		if f.own.Lookup(fl.Name) != nil {
			names = append(names, "-"+fl.Name)
		}
	})
	return names
}

// Options turns the parsed flags into store options, rejecting an unknown
// backend, out-of-range values and device flags that have no device to
// act on.
func (f *Flags) Options() (fcae.Options, error) {
	var opts fcae.Options
	// -compaction-workers counts merge compactors; the pool has one more
	// worker, which keeps a slot free for flushes. A pool of 0 would mean
	// the default, so a negative count is refused rather than resized.
	if f.Workers < 0 {
		return opts, fmt.Errorf("-compaction-workers must be >= 0, got %d", f.Workers)
	}
	if f.ArenaBytes < 0 {
		return opts, fmt.Errorf("-arena-bytes must be >= 0, got %d", f.ArenaBytes)
	}
	if !(f.FaultRate >= 0 && f.FaultRate < 1) {
		return opts, fmt.Errorf("-fault-rate must be in [0,1), got %v", f.FaultRate)
	}
	opts.DispatchConfig.Workers = f.Workers + 1
	switch f.Backend {
	case "cpu":
		if f.FaultRate > 0 {
			return opts, errors.New("-fault-rate requires -backend fcae (no device to fault)")
		}
		if f.ArenaBytes != 0 {
			return opts, errors.New("-arena-bytes requires -backend fcae (no device memory to stage)")
		}
	case "fcae":
		if f.Channels < 1 {
			return opts, fmt.Errorf("-device-channels must be >= 1, got %d", f.Channels)
		}
		cfg := fcae.MultiInputEngineConfig()
		cfg.N, cfg.V, cfg.StagingBytes = f.EngineN, f.EngineV, f.ArenaBytes
		for i := 0; i < f.Channels; i++ {
			exec, err := fcae.NewEngineExecutor(cfg)
			if err != nil {
				return opts, err
			}
			opts.DispatchConfig.Devices = append(opts.DispatchConfig.Devices, exec)
		}
		if f.FaultRate > 0 {
			opts.DispatchConfig.FaultInjector = fcae.NewProbInjector(f.FaultSeed, f.FaultRate)
		}
	default:
		return opts, fmt.Errorf("unknown -backend %q (want cpu or fcae)", f.Backend)
	}
	return opts, nil
}
