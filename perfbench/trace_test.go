package main

import (
	"bytes"
	"math/rand"
	"testing"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compositor"
	"rtcomp/internal/core"
	"rtcomp/internal/raster"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/inproc"
)

// partialLayers returns p random partial images with general alpha and
// transparent runs, so every codec has runs and literals to encode.
func partialLayers(p, w, h int, seed int64) []*raster.Image {
	rng := rand.New(rand.NewSource(seed))
	layers := make([]*raster.Image, p)
	for l := range layers {
		img := raster.New(w, h)
		for i := 0; i < len(img.Pix); i += raster.BytesPerPixel {
			if rng.Intn(3) == 0 {
				continue
			}
			img.Pix[i] = uint8(rng.Intn(256))
			img.Pix[i+1] = uint8(1 + rng.Intn(255))
		}
		layers[l] = img
	}
	return layers
}

func composite(t *testing.T, layers []*raster.Image, method string, cdc codec.Codec, policy compositor.Policy, ft *frameTrace) *raster.Image {
	t.Helper()
	m, err := core.ParseMethod(method)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := m.Schedule(len(layers))
	if err != nil {
		t.Fatal(err)
	}
	opts := compositor.Options{Codec: cdc, GatherRoot: 0, OnMissing: policy}
	if policy == compositor.Recover {
		opts.RecvTimeout = recoverTimeout
	}
	fab := inproc.New(len(layers))
	eps := make([]comm.Comm, len(layers))
	for r := range eps {
		eps[r] = fab.Endpoint(r)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	img, _, err := runRanks(len(layers), func(r int) (*raster.Image, *compositor.Report, error) {
		c, rcdc := ft.instrument(r, eps[r], cdc)
		ropts := opts
		ropts.Codec = rcdc
		return compositor.Run(c, sched, layers[r], ropts)
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDecoratorsTransparent checks that composites through the timing
// decorators are byte-identical to undecorated ones for every codec and
// that the decorators saw the traffic they were meant to time.
func TestDecoratorsTransparent(t *testing.T) {
	layers := partialLayers(4, 64, 48, 7)
	for _, name := range codec.Names() {
		cdc, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, fused := wrapCodec(cdc, &rankTrace{}).(codec.OverDecoder); !fused {
			t.Errorf("%s: wrapped codec lost codec.OverDecoder", name)
		}
		for _, policy := range []compositor.Policy{compositor.FailFast, compositor.Recover} {
			plain := composite(t, layers, "nrt:4", cdc, policy, nil)
			ft := newFrameTrace(len(layers))
			traced := composite(t, layers, "nrt:4", cdc, policy, ft)
			if !bytes.Equal(plain.Pix, traced.Pix) {
				t.Errorf("%s/%v: traced composite differs from the plain one", name, policy)
			}
			var sends, encodes, decodes int64
			for _, rt := range ft.ranks {
				sends += rt.sendMsgs
				encodes += rt.encCalls
				decodes += rt.decCalls
				if rt.commErrors != 0 {
					t.Errorf("%s/%v: %d comm errors", name, policy, rt.commErrors)
				}
			}
			if sends == 0 || encodes == 0 || decodes == 0 {
				t.Errorf("%s/%v: decorators saw %d sends, %d encodes, %d decodes", name, policy, sends, encodes, decodes)
			}
		}
	}
}

// plainCodec hides every optional interface of the codec it wraps.
type plainCodec struct{ codec.Codec }

func TestWrapCodecWithoutFusedPath(t *testing.T) {
	rle, err := codec.ByName("rle")
	if err != nil {
		t.Fatal(err)
	}
	if _, fused := wrapCodec(plainCodec{rle}, &rankTrace{}).(codec.OverDecoder); fused {
		t.Error("wrapper claims codec.OverDecoder for a codec without it")
	}
	layers := partialLayers(4, 32, 32, 3)
	plain := composite(t, layers, "bs", plainCodec{rle}, compositor.FailFast, nil)
	traced := composite(t, layers, "bs", plainCodec{rle}, compositor.FailFast, newFrameTrace(4))
	if !bytes.Equal(plain.Pix, traced.Pix) {
		t.Error("traced composite differs from the plain one on the unfused path")
	}
}

// TestReplayMatchesRenderRank checks that the traced frame workload's
// call-by-call replay produces core.RenderRank's image byte for byte.
func TestReplayMatchesRenderRank(t *testing.T) {
	cfg, err := frameConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.VolumeN, cfg.Width, cfg.Height = 32, 96, 96
	for _, yaw := range []float64{0.35, 2.1} {
		cfg.Camera = shearwarp.Camera{Yaw: yaw, Pitch: 0.2}
		run := func(ft *frameTrace) *raster.Image {
			fab := inproc.New(cfg.P)
			eps := make([]comm.Comm, cfg.P)
			for r := range eps {
				eps[r] = fab.Endpoint(r)
			}
			defer func() {
				for _, ep := range eps {
					ep.Close()
				}
			}()
			c := cfg
			c.Telemetry = telemetry.New()
			img, _, err := runRanks(cfg.P, func(r int) (*raster.Image, *compositor.Report, error) {
				if ft == nil {
					return core.RenderRank(eps[r], c)
				}
				return replayRank(eps[r], c, ft, r)
			})
			if err != nil {
				t.Fatal(err)
			}
			return img
		}
		ft := newFrameTrace(cfg.P)
		want, got := run(nil), run(ft)
		if !bytes.Equal(want.Pix, got.Pix) {
			t.Errorf("yaw %v: replayed frame differs from RenderRank's", yaw)
		}
		if ft.warp <= 0 || ft.render[0] <= 0 || ft.npix == 0 {
			t.Errorf("yaw %v: replay left layers untimed: warp %v render %v npix %d", yaw, ft.warp, ft.render[0], ft.npix)
		}
	}
}
