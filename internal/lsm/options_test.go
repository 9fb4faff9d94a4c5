package lsm

import (
	"strings"
	"testing"

	"fcae/internal/manifest"
	"fcae/internal/sstable"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // empty means valid
	}{
		{name: "zero value", opts: Options{}},
		{name: "paper defaults spelled out", opts: Options{
			MemTableBytes: 4 << 20, BlockSize: 4096, LevelRatio: 10,
			L0CompactionTrigger: 4, L0SlowdownTrigger: 8, L0StopTrigger: 12,
		}},
		{name: "tiered runs", opts: Options{TieredRuns: 4}},
		{name: "compression disabled alone", opts: Options{DisableCompression: true}},
		{name: "equal triggers", opts: Options{
			L0CompactionTrigger: 6, L0SlowdownTrigger: 6, L0StopTrigger: 6,
		}},

		{name: "negative memtable", opts: Options{MemTableBytes: -1},
			wantErr: "MemTableBytes is negative"},
		{name: "negative block size", opts: Options{BlockSize: -4096},
			wantErr: "BlockSize is negative"},
		{name: "negative cache", opts: Options{BlockCacheBytes: -1},
			wantErr: "BlockCacheBytes is negative"},
		{name: "negative level ratio", opts: Options{LevelRatio: -10},
			wantErr: "LevelRatio is negative"},
		{name: "negative tiered runs", opts: Options{TieredRuns: -1},
			wantErr: "TieredRuns is negative"},
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

// TestZeroOptionsResolve pins what the zero Options resolves to — the
// paper's Table IV settings — wherever each default is declared.
func TestZeroOptionsResolve(t *testing.T) {
	o := Options{}.WithDefaults()
	if got, want := o.tableOpts(), (sstable.Options{
		BlockSize: 4096, RestartInterval: 16, Compression: sstable.SnappyCompression, FilterBitsPerKey: 10,
	}); got != want {
		t.Errorf("table options = %+v, want %+v", got, want)
	}
	if got, want := o.ManifestConfig(), (manifest.Config{
		LevelRatio: 10, BaseLevelBytes: 10 << 20, L0CompactionTrigger: 4, MaxOutputFileBytes: 2 << 20,
	}); got != want {
		t.Errorf("manifest config = %+v, want %+v", got, want)
	}
	if got := o.ManifestConfig().MaxBytes(3); got != 1000<<20 {
		t.Errorf("L3 budget = %d, want 1000 MiB", got)
	}
	if o.MemTableBytes != 4<<20 || o.BlockCacheBytes != 8<<20 || o.DispatchConfig.Workers != 2 {
		t.Errorf("memtable %d, block cache %d, workers %d; want 4 MiB, 8 MiB, 2",
			o.MemTableBytes, o.BlockCacheBytes, o.DispatchConfig.Workers)
	}
	if o.L0CompactionTrigger != 4 || o.L0SlowdownTrigger != 8 || o.L0StopTrigger != 12 {
		t.Errorf("L0 ladder = %d/%d/%d, want 4/8/12", o.L0CompactionTrigger, o.L0SlowdownTrigger, o.L0StopTrigger)
	}
	if again := o.WithDefaults(); again.tableOpts() != o.tableOpts() || again.ManifestConfig() != o.ManifestConfig() {
		t.Errorf("WithDefaults is not idempotent: %+v then %+v", o, again)
	}
}

// TestNextWriteStep pins LevelDB's MakeRoomForWrite order on the default
// 8 / 12 ladder: the slowdown comes once and first, then the room check;
// a pending flush holds a full memtable back before L0's stop trigger is
// read, and that trigger holds back only a full memtable.
func TestNextWriteStep(t *testing.T) {
	o := Options{}.WithDefaults()
	for _, tc := range []struct {
		l0                            int
		memFull, flushPending, slowed bool
		want                          WriteStep
	}{
		{l0: 0, want: WriteProceed},
		{l0: 7, want: WriteProceed},
		{l0: 8, want: WriteSlowDown},
		{l0: 8, slowed: true, want: WriteProceed},
		{l0: 12, want: WriteSlowDown},
		{l0: 12, slowed: true, want: WriteProceed},
		{l0: 12, memFull: true, slowed: true, want: WriteWaitL0},
		{l0: 12, memFull: true, want: WriteSlowDown},
		{l0: 0, memFull: true, want: WriteRotate},
		{l0: 11, memFull: true, slowed: true, want: WriteRotate},
		{l0: 0, memFull: true, flushPending: true, want: WriteWaitFlush},
		{l0: 12, memFull: true, flushPending: true, slowed: true, want: WriteWaitFlush},
		{l0: 0, flushPending: true, want: WriteProceed},
	} {
		if got := o.NextWriteStep(tc.l0, tc.memFull, tc.flushPending, tc.slowed); got != tc.want {
			t.Errorf("NextWriteStep(l0 %d, memFull %v, flushPending %v, slowed %v) = %d, want %d",
				tc.l0, tc.memFull, tc.flushPending, tc.slowed, got, tc.want)
		}
	}
}
