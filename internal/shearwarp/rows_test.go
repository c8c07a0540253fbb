package shearwarp

import (
	"testing"

	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
)

// RenderSlabRows must be an exact band decomposition of the slab render:
// each pixel keeps its front-to-back k order inside its band, so rendering
// any partition of the intermediate rows reproduces the frozen one-shot
// slab image byte for byte.
func TestRenderSlabRowsMatchesSlabExactly(t *testing.T) {
	for _, name := range volume.Datasets {
		r := testRenderer(name, 24)
		for _, cam := range []Camera{{}, {Yaw: 0.35, Pitch: -0.25}, {Yaw: -0.7, Pitch: 0.4}} {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			kMid := v.NK() / 2
			for _, slab := range [][2]int{{0, v.NK()}, {kMid / 2, kMid}, {kMid, v.NK()}} {
				want, err := r.renderSlabReference(v, slab[0], slab[1])
				if err != nil {
					t.Fatal(err)
				}
				_, hi := v.IntermediateSize()
				for _, bands := range []int{1, 2, 3, 7} {
					got := raster.New(want.W, want.H)
					step := (hi + bands - 1) / bands
					for y0 := 0; y0 < hi; y0 += step {
						y1 := y0 + step
						if y1 > hi {
							y1 = hi
						}
						if err := r.RenderSlabRows(v, slab[0], slab[1], y0, y1, got); err != nil {
							t.Fatal(err)
						}
					}
					if !raster.Equal(got, want) {
						t.Fatalf("%s cam=%+v slab=%v bands=%d: banded render differs (maxdiff %d)",
							name, cam, slab, bands, raster.MaxDiff(got, want))
					}
				}
			}
		}
	}
}

// Out-of-range bands and mismatched outputs must be rejected, and an empty
// band must be a no-op.
func TestRenderSlabRowsBounds(t *testing.T) {
	r := testRenderer(volume.Datasets[0], 16)
	v, err := r.Factor(Camera{Yaw: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	w, h := v.IntermediateSize()
	out := raster.New(w, h)
	if err := r.RenderSlabRows(v, 0, v.NK(), -1, h, out); err == nil {
		t.Error("negative y0 accepted")
	}
	if err := r.RenderSlabRows(v, 0, v.NK(), 0, h+1, out); err == nil {
		t.Error("y1 past the intermediate height accepted")
	}
	if err := r.RenderSlabRows(v, -1, v.NK(), 0, h, out); err == nil {
		t.Error("negative kLo accepted")
	}
	if err := r.RenderSlabRows(v, 0, v.NK(), 0, h, raster.New(w+1, h)); err == nil {
		t.Error("mismatched output image accepted")
	}
	if err := r.RenderSlabRows(v, 0, v.NK(), 3, 3, out); err != nil {
		t.Errorf("empty band rejected: %v", err)
	}
	for _, b := range out.Pix {
		if b != 0 {
			t.Fatal("rejected/empty calls must not write pixels")
		}
	}
}
