package experiments

import (
	"fmt"
	"runtime"
	"time"

	"rtcomp/internal/core"
	"rtcomp/internal/stats"
)

// runScaling times the full pipeline — partition, render, composite, warp
// — for real on goroutine ranks across processor counts, the classic
// parallel-rendering speedup table. Unlike the simulated figures, these
// numbers depend on the machine running the experiment; the shape (render
// scales, composition grows slowly) is the point.
func runScaling(o Options) ([]*stats.Table, error) {
	ps := []int{1, 2, 4, 8}
	if o.Quick {
		ps = []int{1, 2, 4}
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Pipeline scaling — wall clock on %d-core host (dataset %s, vol %d^3, %dx%d, nrt:auto, trle)",
			runtime.NumCPU(), o.Dataset, o.VolumeN, o.Width, o.Height),
		Headers: []string{"P", "render", "composite+gather", "total", "speedup", "efficiency"},
	}
	var base time.Duration
	for _, p := range ps {
		cfg := core.Config{
			Dataset: o.Dataset,
			VolumeN: o.VolumeN,
			Camera:  o.Camera,
			Width:   o.Width,
			Height:  o.Height,
			P:       p,
			Method:  core.Method{Kind: "rt"}, // N resolved automatically
			Codec:   "trle",
		}
		// Best of three runs smooths scheduler noise.
		var best *core.FrameReport
		var bestTotal time.Duration
		for trial := 0; trial < 3; trial++ {
			t0 := time.Now()
			rep, err := core.RenderParallel(cfg)
			if err != nil {
				return nil, err
			}
			total := time.Since(t0)
			if best == nil || total < bestTotal {
				best, bestTotal = rep, total
			}
		}
		if p == ps[0] {
			base = bestTotal
		}
		speedup := float64(base) / float64(bestTotal) * float64(ps[0])
		t.Add(fmt.Sprint(p),
			best.RenderTime.Round(time.Microsecond).String(),
			best.CompositeAll.Round(time.Microsecond).String(),
			bestTotal.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.0f%%", 100*speedup/float64(p)))
	}
	t.Note("wall-clock numbers are machine-dependent; regenerate on the host of interest")
	return []*stats.Table{t}, nil
}
