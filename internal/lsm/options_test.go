package lsm

import (
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // empty means valid
	}{
		{name: "zero value", opts: Options{}},
		{name: "paper defaults spelled out", opts: Options{
			MemTableBytes: 4 << 20, BlockSize: 4096, RestartInterval: 16,
			FilterBitsPerKey: 10, LevelRatio: 10,
			L0CompactionTrigger: 4, L0SlowdownTrigger: 8, L0StopTrigger: 12,
		}},
		{name: "tiered runs", opts: Options{TieredRuns: 4}},
		{name: "compression disabled alone", opts: Options{DisableCompression: true}},
		{name: "filter disabled alone", opts: Options{DisableFilter: true}},
		{name: "equal triggers", opts: Options{
			L0CompactionTrigger: 6, L0SlowdownTrigger: 6, L0StopTrigger: 6,
		}},

		{name: "negative memtable", opts: Options{MemTableBytes: -1},
			wantErr: "MemTableBytes is negative"},
		{name: "negative block size", opts: Options{BlockSize: -4096},
			wantErr: "BlockSize is negative"},
		{name: "negative restart interval", opts: Options{RestartInterval: -2},
			wantErr: "RestartInterval is negative"},
		{name: "negative filter bits", opts: Options{FilterBitsPerKey: -10},
			wantErr: "FilterBitsPerKey is negative"},
		{name: "negative cache", opts: Options{BlockCacheBytes: -1},
			wantErr: "BlockCacheBytes is negative"},
		{name: "negative level ratio", opts: Options{LevelRatio: -10},
			wantErr: "LevelRatio is negative"},
		{name: "negative tiered runs", opts: Options{TieredRuns: -1},
			wantErr: "TieredRuns is negative"},
		{name: "filter contradiction",
			opts:    Options{DisableFilter: true, FilterBitsPerKey: 10},
			wantErr: "DisableFilter set but FilterBitsPerKey"},
		{name: "slowdown above stop",
			opts:    Options{L0SlowdownTrigger: 20, L0StopTrigger: 10},
			wantErr: "L0SlowdownTrigger (20) exceeds L0StopTrigger (10)"},
		{name: "slowdown above defaulted stop",
			opts:    Options{L0SlowdownTrigger: 50},
			wantErr: "exceeds L0StopTrigger (12)"},
		{name: "compaction trigger above stop",
			opts:    Options{L0CompactionTrigger: 30, L0StopTrigger: 16},
			wantErr: "L0CompactionTrigger (30) exceeds L0StopTrigger (16)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestOpenRejectsInvalidOptions checks that Open surfaces Validate errors
// before touching the directory.
func TestOpenRejectsInvalidOptions(t *testing.T) {
	dir := t.TempDir()
	_, err := Open(dir, Options{L0SlowdownTrigger: 99, L0StopTrigger: 3})
	if err == nil || !strings.Contains(err.Error(), "L0SlowdownTrigger") {
		t.Fatalf("Open with inverted triggers: err = %v", err)
	}
}
