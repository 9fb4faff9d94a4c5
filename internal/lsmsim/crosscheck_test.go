package lsmsim

import (
	"fmt"
	"math"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/lsm"
	"fcae/internal/workload"
)

// TestSimulatorTracksStore holds the simulator to the store it models. The
// embed-store fill of benchmark/ — 200k uniform PUTs of a 16 B key and a
// 1 KiB half-compressible value, then WaitIdle — runs through a real
// store; RunFill then gets the same Store options, the same payload and
// the compression ratio the store measured, and has to predict the store's
// own counters. The level picks are the store's code (package manifest);
// what the bars bound is the one thing the model estimates, the bytes a
// picked table overlaps on the next level, plus what it leaves out: a
// merge drops the overwritten versions of a key and takes a second input
// table when that pulls in no more of the next level, the model writes
// every byte it reads, one table at a time.
func TestSimulatorTracksStore(t *testing.T) {
	if testing.Short() {
		t.Skip("fills two real stores with 200 MB each")
	}
	const (
		records  = 200_000
		keyLen   = 16
		valueLen = 1024
		seed     = 1
	)
	for _, tc := range []struct {
		name  string
		store lsm.Options
		// Relative bars on the merge count and the write amplification.
		merges, writeAmp float64
	}{
		// embed-store's own configuration, the default two-worker pool.
		// Measured: store 44-46 merges (L0 9, L1 35-37) + 9 moves, write
		// amp 4.05-4.29; simulator 47 (9, 38) + 7, 4.49: +2-7 % merges,
		// +5-11 % write amp. The store's least-overlap pick writes less than
		// the round-robin pointer it replaced (4.22-4.49), and it re-links an
		// L0 merge's free L1 inputs first; the model, with no file
		// boundaries, sees neither. The hand-copied picker this
		// test replaced had no trivial-move rule and read 54 (9, 45) + 0,
		// 4.90: +20-29 %, +9-16 %.
		{"leveled", lsm.Options{}, 0.20, 0.13},
		// The single-thread model check, NOT embed-store's configuration:
		// BackendCPU models one background thread, where a flush never runs
		// beside a merge, so the store gets one worker. Measured: store 15
		// merges (L0 12, L1 3), 2.76; simulator the same 15 (12, 3), 2.92
		// (+6 %, the versions a real merge drops). Under the default pool the
		// store flushes during a merge, its L0 merges find five files where
		// the model finds four, and it reads 12 (10, 2) / 2.47-2.54: +25 %
		// and +15-18 %, over these bars, as at the parent — the model has no
		// second worker (EXPERIMENTS.md "Simulator vs store").
		{"tiered-one-worker", lsm.Options{TieredRuns: 4, DispatchConfig: lsm.DispatchConfig{Workers: 1}}, 0.15, 0.15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := lsm.Open(t.TempDir(), tc.store)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			keys, ids := workload.NewKeyGen(keyLen), workload.NewUniform(records, seed)
			values := workload.NewValueGen(valueLen, 0.5, seed)
			for i := 0; i < records; i++ {
				if err := db.Put(keys.Key(ids.Next()), values.Value()); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			st := db.Stats()

			payload := int64(records * (keyLen + valueLen))
			sim := RunFill(Config{
				KeyLen: keyLen, ValueLen: valueLen, DataBytes: payload, Store: tc.store,
				DiskCompression: float64(st.FlushBytes) / float64(payload),
			})
			storeAmp := float64(st.FlushBytes+st.CompactionWrite) / float64(st.FlushBytes)
			var storeLevels [len(st.Levels)]int64
			for level, ls := range st.Levels {
				storeLevels[level] = ls.Compactions
			}
			t.Logf("store:     %d flushes, %d merges %v, %d trivial moves, write amp %.2f",
				st.Flushes, st.Compactions, storeLevels, st.TrivialMoves, storeAmp)
			t.Logf("simulator: %d flushes, %d merges %v, %d trivial moves, write amp %.2f",
				sim.Flushes, sim.Compactions, sim.LevelCompactions, sim.TrivialMoves, sim.WriteAmp)

			within := func(what string, got, want, tol, floor float64) {
				t.Helper()
				if d := math.Abs(got - want); d > tol*want && d > floor {
					t.Errorf("%s: simulator %.2f, store %.2f: off by %+.0f %%, bar %.0f %%",
						what, got, want, (got/want-1)*100, tol*100)
				}
			}
			within("flushes", float64(sim.Flushes), float64(st.Flushes), 0, 1)
			within("merges", float64(sim.Compactions), float64(st.Compactions), tc.merges, 0)
			for level, n := range storeLevels {
				// A level with a handful of merges may be off by two.
				within(fmt.Sprintf("merges out of L%d", level), float64(sim.LevelCompactions[level]), float64(n), tc.merges+0.05, 2)
			}
			within("write amp", sim.WriteAmp, storeAmp, tc.writeAmp, 0)
			if 2*sim.TrivialMoves < st.TrivialMoves {
				t.Errorf("trivial moves: simulator %d, store %d: under half", sim.TrivialMoves, st.TrivialMoves)
			}
		})
	}
}

// TestArenaAdmissionMatchesStore runs the same 9-input engine, once with a
// staging arena far smaller than a flushed table and twice at the modeled
// default, through a real store and through the simulator. Both decide
// offload admission with dispatch.Admit on the same limits, so both must
// send the small arena's merges to the CPU and keep the default's on the
// device. There the simulator's kernel time per merged byte must also be
// the store's engine's within 15 %: both are the engine's own cycles on
// runs of the job's sizes. The second default-arena fill shrinks the
// levels so that both merge out of L1, where one run is a single upper
// table and the next level's overlap is larger. Measured: 2.69 against
// 2.55 ns/B on the first fill (L0 merges only) and 2.03 against
// 2.07-2.16 on the second; charging every merge runs of equal size read
// 1.68 there, 0.78-0.80x the store.
func TestArenaAdmissionMatchesStore(t *testing.T) {
	const (
		keyLen = 16
		seed   = 1
	)
	for _, tc := range []struct {
		name              string
		records, valueLen int
		staging           int64
		fallback          bool
		store             lsm.Options
	}{
		{"1 MiB arena", 20_000, 512, 1 << 20, true, lsm.Options{}},
		{"default arena", 20_000, 512, 0, false, lsm.Options{}},
		{"default arena, small levels", 20_000, 1024, 0, false, lsm.Options{BaseLevelBytes: 2 << 20, MaxOutputFileBytes: 512 << 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := core.MultiInputConfig()
			engine.StagingBytes = tc.staging
			exec, err := core.NewExecutor(engine)
			if err != nil {
				t.Fatal(err)
			}
			store := tc.store
			store.MemTableBytes = 1 << 20
			store.DispatchConfig.Devices = []compaction.Executor{exec}
			db, err := lsm.Open(t.TempDir(), store)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			keys, ids := workload.NewKeyGen(keyLen), workload.NewUniform(uint64(tc.records), seed)
			values := workload.NewValueGen(tc.valueLen, 0.5, seed)
			for i := 0; i < tc.records; i++ {
				if err := db.Put(keys.Key(ids.Next()), values.Value()); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}
			ds, st := db.DispatchStats(), db.Stats()

			payload := int64(tc.records * (keyLen + tc.valueLen))
			sim := RunFill(Config{
				KeyLen: keyLen, ValueLen: tc.valueLen, DataBytes: payload, Store: store,
				Backend: BackendFCAE, Engine: engine,
				DiskCompression: float64(st.FlushBytes) / float64(payload),
			})
			storeFallbacks := ds.FallbackFanIn + ds.FallbackBudget + ds.FallbackArena + ds.FallbackSaturated + ds.FallbackFault
			var storeLevels [len(st.Levels)]int64
			for level, ls := range st.Levels {
				storeLevels[level] = ls.Compactions
			}
			t.Logf("store: %d device jobs %v, %d arena fallbacks of %d; simulator: %d hardware %v, %d fallbacks",
				ds.DeviceJobs, storeLevels, ds.FallbackArena, storeFallbacks, sim.HWCompactions, sim.LevelCompactions, sim.SWFallbacks)
			if tc.fallback {
				if ds.FallbackArena == 0 || sim.SWFallbacks == 0 {
					t.Errorf("a %d-byte input budget must send merges to the CPU in both", engine.ArenaInputBudget())
				}
				return
			}
			if storeFallbacks != 0 || sim.SWFallbacks != 0 {
				t.Errorf("at the default arena neither may fall back")
			}
			if ds.DeviceJobs == 0 || sim.HWCompactions == 0 {
				t.Fatalf("at the default arena both must merge on the device")
			}
			if tc.store.BaseLevelBytes != 0 && (storeLevels[1] == 0 || sim.LevelCompactions[1] == 0) {
				t.Fatalf("with small levels both must merge out of L1")
			}
			// Every merge is on the device, and the model writes what it
			// reads, so CompactionOut is the simulator's merged input.
			storeNs := float64(st.KernelTime.Nanoseconds()) / float64(st.CompactionRead)
			simNs := float64(sim.KernelTime.Nanoseconds()) / float64(sim.CompactionOut)
			t.Logf("kernel time per merged byte: store %.2f ns, simulator %.2f ns", storeNs, simNs)
			if r := simNs / storeNs; r < 1/1.15 || r > 1.15 {
				t.Errorf("simulator's kernel time per byte is %.2fx the store's, bar 15 %%", r)
			}
		})
	}
}
