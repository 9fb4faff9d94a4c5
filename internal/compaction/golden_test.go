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

// TestCompactGoldenDigest pins the bytes the CPU lane writes for storeJob
// to a digest recorded at a779388, before every executor shared one merge
// loop and one block framing: byte-identity with what the store has
// always written. The second entry sets the ledger's compile shim, which
// must change nothing and count nothing.
func TestCompactGoldenDigest(t *testing.T) {
	const want = "0058f563114871d31c97e7e7c40d94e96ca4e9ec16ab34f7b192e36d842cb002"
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
