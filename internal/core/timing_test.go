package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/model"
	"fcae/internal/sstable"
)

// perPair is the engine's cycles per pair on MergeRun's merge of inputs
// equal runs.
func perPair(t *testing.T, cfg Config, inputs, keyLen, valueLen int) float64 {
	t.Helper()
	st, err := cfg.MergeRun(inputs, keyLen, valueLen, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st.Cycles / float64(st.PairsIn)
}

// TestBottleneckCrossover verifies the paper's §V-D1 analysis on the
// engine: the Data Block Decoder becomes the bottleneck once
// L_key < L_value / ((1 + ceil(log2 N)) * V), otherwise the Comparer is.
// The calibrated constants shift the exact crossover, so the test checks
// the asymptotics rather than the precise boundary.
func TestBottleneckCrossover(t *testing.T) {
	cfg := DefaultConfig() // N=2, V=16
	for _, c := range []struct {
		valueLen int
		want     string
	}{{16, "comparer"}, {2048, "decoder"}} {
		st, err := cfg.MergeRun(2, 16, c.valueLen, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Bottleneck(); got != c.want {
			t.Errorf("Lvalue=%d: %s-bound, want %s", c.valueLen, got, c.want)
		}
	}
}

func TestBottleneckNamesTheBusiestStage(t *testing.T) {
	for _, c := range []struct {
		st   Stats
		want string
	}{
		{Stats{DecoderBusy: 5, ComparerBusy: 4, TransferBusy: 3, EncoderBusy: 2}, "decoder"},
		{Stats{DecoderBusy: 4, ComparerBusy: 5, TransferBusy: 3, EncoderBusy: 2}, "comparer"},
		{Stats{DecoderBusy: 4, ComparerBusy: 3, TransferBusy: 5, EncoderBusy: 2}, "transfer"},
		{Stats{DecoderBusy: 4, ComparerBusy: 3, TransferBusy: 2, EncoderBusy: 5}, "encoder"},
	} {
		if got := c.st.Bottleneck(); got != c.want {
			t.Errorf("%+v: Bottleneck = %s, want %s", c.st, got, c.want)
		}
	}
}

// TestComparerPeriodFormula checks the Table II period (2+ceil(log2 N)) *
// Lkey plus the calibrated fixed offset.
func TestComparerPeriodFormula(t *testing.T) {
	for _, n := range []int{2, 4, 9} {
		cfg := DefaultConfig()
		cfg.N = n
		_, cmp, _, _ := cfg.stagePeriods(24, 64)
		want := float64(2+model.CeilLog2(n))*24 + cmpPerSelectFixed
		if math.Abs(cmp-want) > 1e-9 {
			t.Fatalf("N=%d comparer period %.1f, want %.1f", n, cmp, want)
		}
	}
}

// TestSpeedMatchesTableVShape checks the engine's speed on a Table V job
// against the paper's FCAE cells, within 25 % under and 30 % over: a
// leveled 2-input merge of 16-byte keys, the upper run 1/9 of the pairs
// and spread over the lower's key range, at input SSTable bytes per
// kernel second. MergeRun of that shape, what the LSM simulator charges
// such a merge, must read the job's cycles per pair within 10 %.
func TestSpeedMatchesTableVShape(t *testing.T) {
	paper := map[int]map[int]float64{
		8:  {64: 178.5, 512: 446.9, 2048: 506.3},
		16: {64: 164.5, 512: 627.9, 2048: 709.0},
		64: {64: 175.8, 512: 745.4, 2048: 1205.6},
	}
	stride := func(s int) func(i int) []byte {
		return func(i int) []byte { return fmt.Appendf(nil, "a%015d", i*s) }
	}
	for v, cells := range paper {
		cfg := DefaultConfig()
		cfg.V = v
		for lv, want := range cells {
			rng := rand.New(rand.NewSource(1))
			job := &compaction.Job{SmallestSnapshot: keys.MaxSeq, BottomLevel: true,
				TableOpts: sstable.Options{Compression: sstable.SnappyCompression}}
			job.Runs = [][]compaction.Table{
				{BuildRun(400, lv, 1, stride(16), rng)},
				{BuildRun(3200, lv, 1_000_000, stride(2), rng)},
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunJob(job, Params{Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			got := float64(job.InputBytes()) / res.Stats.KernelTime().Seconds() / 1e6
			if got < want*0.75 || got > want*1.3 {
				t.Errorf("V=%d Lv=%d: engine %.0f MB/s, paper %.0f", v, lv, got, want)
			}
			st, err := cfg.MergeRun(2, 16, lv, 8.0/9)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := st.Cycles/float64(st.PairsIn), res.Stats.Cycles/float64(res.Stats.PairsIn); math.Abs(got/want-1) > 0.1 {
				t.Errorf("V=%d Lv=%d: MergeRun %.1f cycles/pair, the job %.1f", v, lv, got, want)
			}
		}
	}
}

// TestSpeedGrowsWithV: wider value lanes never slow the engine.
func TestSpeedGrowsWithV(t *testing.T) {
	for _, lv := range []int{64, 512, 2048} {
		prev := math.Inf(1)
		for _, v := range []int{8, 16, 32, 64} {
			cfg := DefaultConfig()
			cfg.V = v
			if p := perPair(t, cfg, 2, 16, lv); p > prev {
				t.Errorf("Lvalue=%d V=%d: %.1f cycles/pair, more than %.1f at V/2", lv, v, p, prev)
			} else {
				prev = p
			}
		}
	}
}

// TestSpeedFallsWithKeyLength mirrors Fig 15a's mechanism: longer keys
// slow every stage.
func TestSpeedFallsWithKeyLength(t *testing.T) {
	cfg := MultiInputConfig()
	prev := 0.0
	for _, kl := range []int{16, 32, 64, 128, 256} {
		p := perPair(t, cfg, cfg.N, kl, 128)
		if p <= prev {
			t.Fatalf("cycles/pair must grow with key length at %d: %.1f <= %.1f", kl, p, prev)
		}
		prev = p
	}
}

// TestNineInputSlowerAtShortValues mirrors Fig 12: at short values the
// 9-input engine is comparer-bound and slower than the 2-input one; at
// long values both are decoder-bound and converge.
func TestNineInputSlowerAtShortValues(t *testing.T) {
	two := DefaultConfig()
	two.V = 8
	nine := MultiInputConfig()
	ratio := func(lv int) float64 { return perPair(t, two, 2, 16, lv) / perPair(t, nine, 2, 16, lv) }
	if r := ratio(64); r >= 0.9 {
		t.Fatalf("9-input should be clearly slower at short values: ratio %.2f", r)
	}
	if r := ratio(2048); r < 0.95 {
		t.Fatalf("9-input should converge at long values: ratio %.2f", r)
	}
}

// TestBasicPipelineSlower: the Fig 2 basic pipeline (no key-value
// separation) must be slower for any non-trivial value length.
func TestBasicPipelineSlower(t *testing.T) {
	off := DefaultConfig()
	off.NoKeyValueSeparation = true
	for _, lv := range []int{32, 128, 1024} {
		if on, off := perPair(t, DefaultConfig(), 2, 16, lv), perPair(t, off, 2, 16, lv); off <= on {
			t.Errorf("Lvalue=%d: basic pipeline %.1f cycles/pair, separated %.1f", lv, off, on)
		}
	}
}

// TestMergeRunIsFixed: MergeRun is a function of its arguments, with the
// last run's share in sixteenths, and refuses a shape the engine cannot
// take.
func TestMergeRunIsFixed(t *testing.T) {
	cfg := MultiInputConfig()
	a, err := cfg.MergeRun(4, 16, 256, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	k := mergeKey{cfg, 4, 16, 256, shareUnits / 2}
	if _, ok := mergeRuns.LoadAndDelete(k); !ok { // run it again, not from the memo
		t.Fatalf("no memo entry under %+v", k)
	}
	if b, _ := cfg.MergeRun(4, 16, 256, 0.51); a != b || a.PairsOut != mergePairs {
		t.Fatalf("two runs: %+v, then %+v", a, b)
	}
	if even, _ := cfg.MergeRun(4, 16, 256, 0); even == a {
		t.Fatalf("a run holding half the pairs timed as four equal runs: %+v", a)
	}
	for _, bad := range []struct {
		inputs, keyLen, valueLen int
		last                     float64
	}{{0, 16, 256, 0}, {cfg.N + 1, 16, 256, 0}, {2, 2, 256, 0}, {2, 16, -1, 0}, {2, 16, 256, 1}, {2, 16, 256, -0.1}, {2, 16, 256, math.NaN()}} {
		if _, err := cfg.MergeRun(bad.inputs, bad.keyLen, bad.valueLen, bad.last); !errors.Is(err, ErrConfig) {
			t.Errorf("MergeRun%+v: %v, want ErrConfig", bad, err)
		}
	}
	if _, err := (Config{N: 9, V: 16, WIn: 8}).MergeRun(2, 16, 256, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("an invalid engine ran: %v", err)
	}
}

func TestKernelTimeAndSpeedConsistent(t *testing.T) {
	s := Stats{Cycles: 200e6} // one second of work
	if got := s.KernelTime().Seconds(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("KernelTime = %v", got)
	}
	s.PairsIn = 1000
	if got := s.PairsTime(250); got != time.Second/4 {
		t.Fatalf("PairsTime(250) = %v at 200k cycles/pair", got)
	}
	if got := (Stats{}).PairsTime(250); got != 0 {
		t.Fatalf("PairsTime of an empty run = %v", got)
	}
}

// TestConfigLiteralIsThePaperDesign: a literal that names only the triple
// Table VII sweeps models what DefaultConfig and MultiInputConfig model,
// on the uniform merge and on a job of its own alike: the fixed hardware
// is constant and the zero ablation switches are the paper's design.
func TestConfigLiteralIsThePaperDesign(t *testing.T) {
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	runs := [][]compaction.Table{
		{buildTable(t, opts, genRun("key-a", 400, 256, 100))},
		{buildTable(t, opts, genRun("key-b", 300, 256, 1000))},
	}
	for _, c := range []struct {
		named, literal Config
	}{
		{DefaultConfig(), Config{N: 2, V: 16, WIn: 64}},
		{MultiInputConfig(), Config{N: 9, V: 8, WIn: 8}},
	} {
		for _, lv := range []int{64, 1024} {
			got, err := c.literal.MergeRun(2, 16, lv, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := c.named.MergeRun(2, 16, lv, 0); got != want {
				t.Errorf("%+v Lv=%d: MergeRun = %+v, want %+v", c.literal, lv, got, want)
			}
		}
		cycles := func(cfg Config) float64 {
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var images []*InputImage
			for _, run := range runs {
				img, err := BuildInputImage(run, cfg.WIn, opts)
				if err != nil {
					t.Fatal(err)
				}
				images = append(images, img)
			}
			res, err := eng.Run(images, Params{Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats.Cycles
		}
		if got, want := cycles(c.literal), cycles(c.named); got != want || got == 0 {
			t.Errorf("%+v: engine cycles %v, want %v", c.literal, got, want)
		}
	}
}
