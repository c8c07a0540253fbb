package core

import (
	"fmt"
	"math"

	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// OrbitReport is the outcome of a multi-frame orbit render.
type OrbitReport struct {
	Frames []*raster.Image
	// PerFrame holds the per-frame pipeline reports.
	PerFrame []*FrameReport
}

// RenderOrbit renders nframes of a full yaw orbit (the configured camera's
// yaw advanced by 2*pi/nframes per frame, pitch held), building the volume,
// the transfer function and, with cfg.RLE, the RLE volume once and reusing
// them across frames — the animation loop of an interactive viewer. Every
// frame runs the full parallel pipeline: partition, render, composite,
// warp.
func RenderOrbit(cfg Config, nframes int) (*OrbitReport, error) {
	if nframes < 1 {
		return nil, fmt.Errorf("core: RenderOrbit needs at least one frame, got %d", nframes)
	}
	vol := volume.ByName(cfg.Dataset, cfg.VolumeN)
	if vol == nil {
		return nil, fmt.Errorf("core: unknown dataset %q", cfg.Dataset)
	}
	tf := xfer.ForDataset(cfg.Dataset)
	rle := cfg.rleVolume(vol, tf)
	out := &OrbitReport{
		Frames:   make([]*raster.Image, nframes),
		PerFrame: make([]*FrameReport, nframes),
	}
	baseYaw := cfg.Camera.Yaw
	for f := 0; f < nframes; f++ {
		frameCfg := cfg
		frameCfg.Camera.Yaw = baseYaw + 2*math.Pi*float64(f)/float64(nframes)
		rep, err := frameCfg.renderParallel(vol, tf, rle)
		if err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", f, err)
		}
		out.Frames[f] = rep.Image
		out.PerFrame[f] = rep
	}
	return out, nil
}
