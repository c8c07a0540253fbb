package main

import (
	"math"
	"testing"
	"time"

	"rtcomp/internal/core"
)

func TestMaxTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {11, 9}, {99, 89}, {100, 90}, {200, 95}, {1000, 99}, {5000, 99},
	} {
		if got := maxTailPercentile(tc.n); got != tc.want {
			t.Errorf("maxTailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The returned percentile really leaves minBeyond samples above its
	// nearest-rank value, and the next one up does not.
	for n := 11; n <= 2000; n++ {
		p := maxTailPercentile(n)
		beyond := func(p int) int { return n - int(math.Ceil(float64(p)*float64(n)/100)) }
		if beyond(p) < minBeyond || (p < 99 && beyond(p+1) >= minBeyond) {
			t.Fatalf("n=%d: p%d leaves %d beyond, p%d leaves %d", n, p, beyond(p), p+1, beyond(p+1))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty = %v, want 0", got)
	}
}

// TestFitRecoversModel feeds fitModel synthetic frames whose sends cost
// exactly Ts + Tp*bytes and whose compositor self time is exactly
// To*overPixels, and checks that the fitted constants come back.
func TestFitRecoversModel(t *testing.T) {
	const (
		tsNs = 12_000.0 // 12 us
		tpNs = 0.75     // per byte
		toNs = 1.5      // per pixel
	)
	m, err := core.ParseMethod("nrt:4")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := m.Schedule(4)
	if err != nil {
		t.Fatal(err)
	}
	var frames []tracedFrame
	var sends []msgSample
	for f := 0; f < 20; f++ {
		ft := newFrameTrace(4)
		ft.npix = 512 * 512
		overPix := int64(100_000 + 5_000*f)
		for r := range ft.ranks {
			ft.run[r] = time.Duration(toNs * float64(overPix) / 4)
		}
		frames = append(frames, tracedFrame{ft: ft, overPix: overPix})
		for k := 0; k < 5; k++ {
			n := 1_000 + 7_919*(f*5+k)%200_000
			sends = append(sends, msgSample{n, time.Duration(tsNs + tpNs*float64(n))})
		}
	}
	got := map[string]metric{"compositor.run_ms.max": {1, "ms"}}
	fitModel(got, sched, frames, sends, 1)
	for name, want := range map[string]float64{
		"model.ts_us":           tsNs / 1e3,
		"model.tp_ns_per_byte":  tpNs,
		"model.to_ns_per_pixel": toNs,
	} {
		if v := got[name].Value; math.Abs(v-want) > 1e-3*want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if got["model.predicted_ms"].Value <= 0 {
		t.Errorf("model.predicted_ms = %v, want > 0", got["model.predicted_ms"].Value)
	}
}

func TestFitLineNeedsSpread(t *testing.T) {
	if _, _, ok := fitLine([]float64{3, 3, 3}, []float64{1, 2, 3}); ok {
		t.Error("fitLine accepted xs without spread")
	}
	if b := fitOrigin([]float64{2, 4}, []float64{3, 6}); b != 1.5 {
		t.Errorf("fitOrigin slope = %v, want 1.5", b)
	}
}
