package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// mergePairs is the synthetic merge's pair count: its cycles per pair
// are within 2 % of a merge eight times as long's.
const mergePairs = 1024

// shareUnits is the grain of the last run's share of the pairs: the memo
// holds few shapes and the share is off by at most 1/32 of the pairs.
const shareUnits = 16

// mergeRuns memoizes MergeRun for the process: a simulated fill asks for
// the same few shapes at every merge it offloads.
var mergeRuns sync.Map // mergeKey -> Stats

type mergeKey struct {
	cfg                            Config
	inputs, keyLen, valueLen, last int
}

// MergeRun runs the engine on a synthetic merge and returns its Stats:
// mergePairs pairs of keyLen-byte user keys and valueLen-byte values, all
// kept, drawn from a fixed seed, in inputs runs whose keys interleave at
// random, as a random fill's do. The last run holds lastShare of the
// pairs, in sixteenths, and the others split the rest evenly; lastShare 0
// makes every run the same size. A leveled merge is that shape, L0's files
// or one upper table over the next level's overlap, and the lower run's
// decoder lane decodes most of its pairs. A merge that is not run (the
// LSM simulator's, a configuration sweep's) is charged its cycles per
// pair: there is no closed form beside the timing pass.
func (c Config) MergeRun(inputs, keyLen, valueLen int, lastShare float64) (Stats, error) {
	eng, err := NewEngine(c)
	if err != nil {
		return Stats{}, err
	}
	if inputs < 1 || inputs > eng.cfg.N || keyLen < 4 || valueLen < 0 || !(lastShare >= 0 && lastShare < 1) {
		return Stats{}, fmt.Errorf("%w: %d inputs, the last %v of the pairs, of %d-byte keys (at least 4) and %d-byte values, engine has N=%d",
			ErrConfig, inputs, lastShare, keyLen, valueLen, eng.cfg.N)
	}
	last, spread := 0, inputs // the last run's sixteenths (0: all equal), the runs sharing the rest
	if lastShare > 0 && inputs > 1 {
		last, spread = min(max(1, int(math.Round(lastShare*shareUnits))), shareUnits-1), inputs-1
	}
	k := mergeKey{eng.cfg, inputs, keyLen, valueLen, last}
	k.cfg.StagingBytes = 0 // the arena's size does not time the pipeline
	if st, ok := mergeRuns.Load(k); ok {
		return st.(Stats), nil
	}
	// Pair i goes to a run drawn by perm[i]: the last run takes its share
	// of the permutation's values, the others the rest in turn.
	rng := rand.New(rand.NewSource(1))
	runKeys := make([][]int, inputs)
	for i, p := range rng.Perm(mergePairs) {
		r := p % spread
		if p < last*mergePairs/shareUnits {
			r = inputs - 1
		}
		runKeys[r] = append(runKeys[r], i)
	}
	job := &compaction.Job{SmallestSnapshot: keys.MaxSeq, BottomLevel: true,
		TableOpts: sstable.Options{Compression: sstable.SnappyCompression}}
	for _, ids := range runKeys {
		job.Runs = append(job.Runs, []compaction.Table{BuildRun(len(ids), valueLen, 1, func(i int) []byte {
			return fmt.Appendf(nil, "%0*d", keyLen, ids[i])
		}, rng)})
	}
	res, err := eng.RunJob(job, Params{Compress: true})
	if err != nil {
		return Stats{}, err
	}
	mergeRuns.Store(k, res.Stats)
	return res.Stats, nil
}

// BuildRun renders n entries into one snappy-compressed SSTable held in
// memory: entry i has user key key(i), sequence number seq+i and
// valueLen bytes from rng, which do not compress. The keys must ascend in
// i; BuildRun panics otherwise.
func BuildRun(n, valueLen int, seq uint64, key func(i int) []byte, rng *rand.Rand) compaction.Table {
	var buf bytes.Buffer
	w := sstable.NewWriter(&buf, sstable.Options{Compression: sstable.SnappyCompression})
	val := make([]byte, valueLen)
	for i := 0; i < n; i++ {
		rng.Read(val)
		if err := w.Add(keys.MakeInternal(nil, key(i), seq+uint64(i), keys.KindSet), val); err != nil {
			panic(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		panic(err)
	}
	return compaction.Table{Num: 1, Size: int64(buf.Len()), Data: bytes.NewReader(buf.Bytes())}
}
