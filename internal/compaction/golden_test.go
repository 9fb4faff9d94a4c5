package compaction

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// outputDigest is the SHA-256 over a result's output files, in output
// order.
func outputDigest(env *memEnv, res *Result) string {
	h := sha256.New()
	for _, ot := range res.Outputs {
		h.Write(env.files[ot.Num].Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompactGoldenDigest pins the bytes the CPU lane writes for storeJob,
// and with them every executor's: core's TestEngineMatchesCPUBytes holds
// the engine lane to the CPU lane's files, so this is the one digest. The
// second entry sets the ledger's compile shim, which must change nothing
// and count nothing.
//
// Re-pinned when the table cut became sstable.TableFull (sealed data
// blocks only; before, file offset plus the open block, at a779388's
// 0058f563114871d31c97e7e7c40d94e96ca4e9ec16ab34f7b192e36d842cb002): a
// table now ends up to one block later. Still 4 tables, of 2 138 866 /
// 2 139 046 / 2 138 357 / 679 236 bytes before and 2 140 091 / 2 141 633 /
// 2 141 972 / 669 581 after (+1 225, +2 587, +3 615, -9 655); 7 095 505
// bytes written become 7 093 277 (-0.03 %).
//
// Re-pinned when a merge began to be cut into key-range parts (Cuts; at
// b36455ab2421e57bbb9308e486f2f5fd1da7080c6b437ce26439be6b06b4226b
// before): storeJob's 11 MB now merges as two parts cut at user key
// 0000000000020029, and a table ends at the cut. Still 4 tables, of
// 2 140 091 / 2 141 633 / 2 141 972 / 669 581 bytes before and
// 2 140 091 / 1 411 853 / 2 140 799 / 1 401 586 after; 7 093 277 bytes
// written become 7 094 329 (+0.01 %). The entries are unchanged:
// TestSplitMergeMatchesWholeMerge holds every split merge's decoded
// entries and pair counts to the same job merged whole.
//
// Re-pinned when a cut began to end a block instead of a table (at
// 74747ab8141646461b1f9397a0ea1ea9367377c3ffe41fd6b7eb03cb09a377c2
// before): storeJob's 7 094 510 input bytes now merge as eight parts (a
// part per 512 KiB), each cut ends a block, and a table ends only once
// full, at a block that begins a new user key. Still 4 tables, of
// 2 140 091 / 1 411 853 / 2 140 799 / 1 401 586 bytes before and
// 2 142 320 / 2 139 603 / 2 139 769 / 672 733 after; 7 094 329 bytes
// written become 7 094 425 (+96: seven partial blocks cost 1 148 bytes
// over the job merged whole, the one table cut at the old cut 1 052).
func TestCompactGoldenDigest(t *testing.T) {
	const want = "ebdf52568da51a3e6f91b17648f8d24d16457bd41a500636097edcc707217855"
	job := storeJob(t)
	for _, cpu := range []CPU{{}, {Pipeline: PipelineConfig{Depth: 4}}} {
		env := newMemEnv()
		res, err := cpu.Compact(job, env)
		if err != nil {
			t.Fatal(err)
		}
		if got := outputDigest(env, res); got != want {
			t.Errorf("%+v: %d outputs digest to %s, want %s", cpu, len(res.Outputs), got, want)
		}
		if res.Stats.Pipeline != (PipelineStats{}) {
			t.Errorf("%+v: Stats.Pipeline = %+v, want zero", cpu, res.Stats.Pipeline)
		}
	}
}
