package core

import (
	"math"
	"testing"
	"testing/quick"

	"fcae/internal/compaction"
	"fcae/internal/model"
	"fcae/internal/sstable"
)

// TestBottleneckCrossover verifies the paper's §V-D1 analysis: the Data
// Block Decoder becomes the bottleneck once
// L_key < L_value / ((1 + ceil(log2 N)) * V), otherwise the Comparer is.
// The calibrated constants shift the exact crossover, so the test checks
// the asymptotics rather than the precise boundary.
func TestBottleneckCrossover(t *testing.T) {
	cfg := DefaultConfig() // N=2, V=16
	keyLen := 24
	if got := cfg.BottleneckStage(keyLen, 16); got != "comparer" {
		t.Fatalf("tiny values should be comparer-bound, got %s", got)
	}
	if got := cfg.BottleneckStage(keyLen, 4096); got != "decoder" {
		t.Fatalf("huge values should be decoder-bound, got %s", got)
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

// TestSpeedMatchesTableVShape checks the analytic speed model against the
// paper's Table V FCAE cells within 25%.
func TestSpeedMatchesTableVShape(t *testing.T) {
	paper := map[int]map[int]float64{
		8:  {64: 178.5, 512: 446.9, 2048: 506.3},
		16: {64: 164.5, 512: 627.9, 2048: 709.0},
		64: {64: 175.8, 512: 745.4, 2048: 1205.6},
	}
	for v, cells := range paper {
		cfg := DefaultConfig()
		cfg.V = v
		for lv, want := range cells {
			got := cfg.SpeedMBps(24, lv)
			if got < want*0.75 || got > want*1.3 {
				t.Errorf("V=%d Lv=%d: modeled %.0f MB/s, paper %.0f", v, lv, got, want)
			}
		}
	}
}

// TestSpeedGrowsWithV: wider value lanes never slow the engine.
func TestSpeedGrowsWithV(t *testing.T) {
	f := func(lvRaw uint16) bool {
		lv := int(lvRaw%4096) + 1
		prev := 0.0
		for _, v := range []int{8, 16, 32, 64} {
			cfg := DefaultConfig()
			cfg.V = v
			s := cfg.SpeedMBps(24, lv)
			if s < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSpeedFallsWithKeyLength mirrors Fig 15a's mechanism: longer keys
// slow every stage.
func TestSpeedFallsWithKeyLength(t *testing.T) {
	cfg := MultiInputConfig()
	prev := 0.0
	for _, kl := range []int{16, 32, 64, 128, 256} {
		period := cfg.BottleneckPeriod(kl+8, 128)
		if period <= prev {
			t.Fatalf("period must grow with key length at %d: %.1f <= %.1f", kl, period, prev)
		}
		prev = period
	}
}

// TestNineInputSlowerAtShortValues mirrors Fig 12: at short values the
// 9-input engine is comparer-bound and slower than the 2-input one; at
// long values both are decoder-bound and converge.
func TestNineInputSlowerAtShortValues(t *testing.T) {
	two := DefaultConfig()
	two.V = 8
	nine := MultiInputConfig()
	shortRatio := nine.SpeedMBps(24, 64) / two.SpeedMBps(24, 64)
	longRatio := nine.SpeedMBps(24, 2048) / two.SpeedMBps(24, 2048)
	if shortRatio >= 0.9 {
		t.Fatalf("9-input should be clearly slower at short values: ratio %.2f", shortRatio)
	}
	if longRatio < 0.95 {
		t.Fatalf("9-input should converge at long values: ratio %.2f", longRatio)
	}
}

// TestBasicPipelineSlower: the Fig 2 basic pipeline (no key-value
// separation) must be slower for any non-trivial value length.
func TestBasicPipelineSlower(t *testing.T) {
	f := func(lvRaw uint16) bool {
		lv := int(lvRaw%4096) + 32
		on := DefaultConfig()
		off := DefaultConfig()
		off.NoKeyValueSeparation = true
		return off.BottleneckPeriod(24, lv) > on.BottleneckPeriod(24, lv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelTimeAndSpeedConsistent(t *testing.T) {
	s := Stats{Cycles: 200e6, BytesIn: 100 << 20} // one second of work
	if got := s.KernelTime().Seconds(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("KernelTime = %v", got)
	}
	if got := s.SpeedMBps(); math.Abs(got-float64(100<<20)/1e6) > 1e-6 {
		t.Fatalf("SpeedMBps = %v", got)
	}
}

// TestConfigLiteralIsThePaperDesign: a literal that names only the triple
// Table VII sweeps models what DefaultConfig and MultiInputConfig model,
// period, speed, limiting stage and engine cycles alike: the fixed
// hardware is constant and the zero ablation switches are the paper's
// design.
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
		for _, lv := range []int{64, 512, 2048} {
			if got, want := c.literal.BottleneckPeriod(24, lv), c.named.BottleneckPeriod(24, lv); got != want {
				t.Errorf("%+v Lv=%d: BottleneckPeriod = %v, want %v", c.literal, lv, got, want)
			}
			if got, want := c.literal.SpeedMBps(24, lv), c.named.SpeedMBps(24, lv); got != want {
				t.Errorf("%+v Lv=%d: SpeedMBps = %v, want %v", c.literal, lv, got, want)
			}
			if got, want := c.literal.BottleneckStage(24, lv), c.named.BottleneckStage(24, lv); got != want {
				t.Errorf("%+v Lv=%d: BottleneckStage = %s, want %s", c.literal, lv, got, want)
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
