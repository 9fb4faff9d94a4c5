package storeflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"fcae"
)

func TestFlagsToOptions(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty means the flags are accepted
		workers int
		devices int
		faults  bool
	}{
		{name: "all defaults", workers: 2},
		{name: "cpu spelled out", args: []string{"-backend", "cpu", "-compaction-workers", "3"}, workers: 4},
		{name: "engine flags without the engine are inert", args: []string{"-engine_n", "2", "-fault-seed", "9"}, workers: 2},
		{name: "fcae", args: []string{"-backend", "fcae"}, workers: 2, devices: 1},
		{name: "fcae channels and workers", args: []string{"-backend", "fcae", "-device-channels", "3", "-compaction-workers", "2"},
			workers: 3, devices: 3},
		{name: "fcae faults and arena", args: []string{"-backend", "fcae", "-fault-rate", "0.2", "-fault-seed", "5", "-arena-bytes", "1048576"},
			workers: 2, devices: 1, faults: true},

		{name: "unknown backend", args: []string{"-backend", "fpga"}, wantErr: `unknown -backend "fpga"`},
		{name: "fault rate without a device", args: []string{"-fault-rate", "0.1"}, wantErr: "-fault-rate requires -backend fcae"},
		{name: "arena without a device", args: []string{"-arena-bytes", "4096"}, wantErr: "-arena-bytes requires -backend fcae"},
		{name: "negative arena", args: []string{"-backend", "fcae", "-arena-bytes", "-1"}, wantErr: "-arena-bytes must be >= 0, got -1"},
		{name: "no channels", args: []string{"-backend", "fcae", "-device-channels", "0"}, wantErr: "-device-channels must be >= 1"},
		{name: "engine that cannot be built", args: []string{"-backend", "fcae", "-engine_n", "1"}, wantErr: "core:"},
		{name: "no compactors", args: []string{"-compaction-workers", "0"}, workers: 1},
		{name: "workers -1", args: []string{"-compaction-workers", "-1"}, wantErr: "-compaction-workers must be >= 0, got -1"},
		{name: "workers -5", args: []string{"-compaction-workers", "-5"}, wantErr: "-compaction-workers must be >= 0, got -5"},
		{name: "negative fault rate on cpu", args: []string{"-fault-rate", "-0.5"}, wantErr: "-fault-rate must be in [0,1), got -0.5"},
		{name: "fault rate of one", args: []string{"-backend", "fcae", "-fault-rate", "1"}, wantErr: "-fault-rate must be in [0,1), got 1"},
		{name: "fault rate not a number", args: []string{"-backend", "fcae", "-fault-rate", "NaN"}, wantErr: "-fault-rate must be in [0,1), got NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			opts, err := f.Options()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Options() error = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := opts.Validate(); err != nil {
				t.Errorf("resolved options do not validate: %v", err)
			}
			dc := opts.DispatchConfig
			if dc.Workers != tc.workers || len(dc.Devices) != tc.devices || (dc.FaultInjector != nil) != tc.faults {
				t.Errorf("Workers %d, %d devices, injector %v; want %d, %d, %v",
					dc.Workers, len(dc.Devices), dc.FaultInjector != nil, tc.workers, tc.devices, tc.faults)
			}
			// Nothing but the dispatch configuration is ever set, and at
			// the defaults nothing but the pool size.
			dc.Workers, dc.Devices, dc.FaultInjector = 0, nil, nil
			opts.DispatchConfig = dc
			if !reflect.DeepEqual(opts, fcae.Options{}) {
				t.Errorf("flags set more than Workers, Devices and FaultInjector: %+v", opts)
			}
		})
	}
}

// TestGiven checks that a command can tell which store flags its command
// line set, whatever their values, and that its own flags are not counted.
func TestGiven(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.String("addr", "", "")
	f := Register(fs)
	if err := fs.Parse([]string{"-addr", "x:1", "-backend", "cpu", "-fault-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Given(), []string{"-backend", "-fault-seed"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Given = %v, want %v", got, want)
	}
}
