package core

import (
	"math"
	"testing"
)

// TestResourcesMatchTableVII checks the calibrated resource model against
// the paper's six synthesized configurations.
func TestResourcesMatchTableVII(t *testing.T) {
	rows := []struct {
		n, win, v     int
		bram, ff, lut float64
	}{
		{2, 64, 16, 18, 10, 72},
		{2, 64, 8, 17, 9, 63},
		{9, 64, 8, 35, 27, 206},
		{9, 16, 16, 30, 18, 125},
		{9, 16, 8, 26, 16, 103},
		{9, 8, 8, 25, 14, 84},
	}
	for _, row := range rows {
		cfg := Config{N: row.n, WIn: row.win, V: row.v}
		u := cfg.Resources()
		check := func(name string, got, want, tol float64) {
			if math.Abs(got-want) > tol {
				t.Errorf("N=%d WIn=%d V=%d: %s = %.1f, paper %.0f", row.n, row.win, row.v, name, got, want)
			}
		}
		check("BRAM", u.BRAM, row.bram, 2)
		check("FF", u.FF, row.ff, 2)
		check("LUT", u.LUT, row.lut, 7)
	}
}

// TestFitsMatchesPaper: only the 2-input configs and the 9-input WIn=8
// config fit the chip.
func TestFitsMatchesPaper(t *testing.T) {
	fits := []Config{
		{N: 2, WIn: 64, V: 16},
		{N: 2, WIn: 64, V: 8},
		{N: 9, WIn: 8, V: 8},
	}
	overflows := []Config{
		{N: 9, WIn: 64, V: 8},
		{N: 9, WIn: 16, V: 16},
		{N: 9, WIn: 16, V: 8},
	}
	for _, c := range fits {
		if !c.Fits() {
			t.Errorf("config %+v should fit (paper Table VII)", c)
		}
	}
	for _, c := range overflows {
		if c.Fits() {
			t.Errorf("config %+v should overflow the chip", c)
		}
	}
}

func TestResourcesMonotonicInN(t *testing.T) {
	prev := 0.0
	for n := 2; n <= 16; n++ {
		u := Config{N: n, WIn: 8, V: 8}.Resources()
		if u.LUT <= prev {
			t.Fatalf("LUT not monotonic at N=%d", n)
		}
		prev = u.LUT
	}
}

func TestMaxFittingV(t *testing.T) {
	// The paper settles on WIn=8, V=8 for N=9; with WIn=8 the widest
	// fitting V is 8.
	c := Config{N: 9, WIn: 8}
	if v := c.MaxFittingV(); v != 8 {
		t.Fatalf("MaxFittingV = %d, want 8", v)
	}
	// At WIn=64 no V fits for N=9.
	c = Config{N: 9, WIn: 64}
	if v := c.MaxFittingV(); v != 0 {
		t.Fatalf("MaxFittingV = %d, want 0 (nothing fits)", v)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{N: 1, V: 8, WIn: 8},
		{N: 2, V: 0, WIn: 8},
		{N: 2, V: 16, WIn: 8},                  // V > WIn
		{N: 2, V: 8, WIn: 128},                 // WIn > AXI max
		{N: 2, V: 8, WIn: 8, StagingBytes: -1}, // no heap staging mode
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestTableVConfigurationsFit(t *testing.T) {
	// The paper measured Table V with V up to 64 at N=2, so those
	// configurations must fit the chip.
	for _, v := range []int{8, 16, 32, 64} {
		cfg := Config{N: 2, WIn: 64, V: v}
		if !cfg.Fits() {
			t.Errorf("N=2 V=%d must fit (Table V measured it): %+v", v, cfg.Resources())
		}
	}
}
