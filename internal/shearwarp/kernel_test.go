package shearwarp

import (
	"fmt"
	"math"
	"testing"

	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// kernelCameras covers all six principal-axis/flip cases, each both
// axis-aligned and sheared.
var kernelCameras = []Camera{
	{}, {Yaw: 0.35, Pitch: 0.2}, {Yaw: -0.6, Pitch: -0.45}, // +Z
	{Yaw: math.Pi}, {Yaw: 2.8, Pitch: 0.3}, {Yaw: -2.5, Pitch: -0.5}, // -Z
	{Yaw: -math.Pi / 2}, {Yaw: -1.2, Pitch: -0.35}, // +X
	{Yaw: math.Pi / 2}, {Yaw: 1.3, Pitch: 0.25}, {Yaw: 1.9, Pitch: -0.2}, // -X
	{Pitch: math.Pi / 2}, {Yaw: 0.3, Pitch: 1.2}, // +Y
	{Pitch: -math.Pi / 2}, {Yaw: -0.4, Pitch: -1.1}, // -Y
}

// sixCases is one sheared camera per principal-axis/flip case.
var sixCases = []Camera{kernelCameras[1], kernelCameras[4], kernelCameras[7],
	kernelCameras[9], kernelCameras[12], kernelCameras[14]}

// holeyTF is a transfer function whose transparent set is not downward
// closed, so the kernel must keep full row bounds.
func holeyTF() *xfer.Func {
	tf := xfer.Ramp(50, 200, 255, 200)
	tf.Alpha[120] = 0
	return tf
}

// checkKernel renders the view through every kernel entry point (rv is the
// renderer's RLE volume) and requires each to match renderSlabReference
// byte for byte.
func checkKernel(t *testing.T, r *Renderer, rv *RLEVolume, v *View, label string) {
	t.Helper()
	full, err := r.renderSlabReference(v, 0, v.NK())
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want *raster.Image) {
		t.Helper()
		if !raster.Equal(got, want) {
			t.Fatalf("%s: %s differs from the reference (maxdiff %d)", label, what, raster.MaxDiff(got, want))
		}
	}
	for _, n := range []int{1, 3, 4} {
		slabs, err := partition.Slabs1D(v.NK(), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range slabs {
			want := full
			if n > 1 {
				if want, err = r.renderSlabReference(v, s.Lo, s.Hi); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("slab %d/%d [%d,%d)", n, len(slabs), s.Lo, s.Hi)
			got, err := r.RenderSlab(v, s.Lo, s.Hi)
			if err != nil {
				t.Fatal(err)
			}
			same("RenderSlab "+what, got, want)
			if got, err = r.RenderSlabRLE(rv, v, s.Lo, s.Hi); err != nil {
				t.Fatal(err)
			}
			same("RenderSlabRLE "+what, got, want)
		}
	}
	wi, hi := v.IntermediateSize()
	for _, bands := range []int{1, 2, 3, 7} {
		got := raster.New(wi, hi)
		step := (hi + bands - 1) / bands
		for y0 := 0; y0 < hi; y0 += step {
			if err := r.RenderSlabRows(v, 0, v.NK(), y0, min(y0+step, hi), got); err != nil {
				t.Fatal(err)
			}
		}
		same(fmt.Sprintf("RenderSlabRows in %d bands", bands), got, full)
	}
	tiles, err := partition.Grid2D(wi, hi, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range tiles {
		got, err := r.RenderTile(v, tl.X0, tl.Y0, tl.X1, tl.Y1)
		if err != nil {
			t.Fatal(err)
		}
		want := raster.New(wi, hi)
		for y := tl.Y0; y < tl.Y1; y++ {
			row := (y*wi + tl.X0) * raster.BytesPerPixel
			end := (y*wi + tl.X1) * raster.BytesPerPixel
			copy(want.Pix[row:end], full.Pix[row:end])
		}
		same(fmt.Sprintf("RenderTile %+v", tl), got, want)
	}
}

// TestRenderKernelMatchesReference holds every kernel entry point to the
// frozen pre-kernel renderer across datasets, sizes, all principal-axis
// and flip cases, slab and band splits, 2-D tiles, the RLE volume and a
// transfer function that is not downward closed.
func TestRenderKernelMatchesReference(t *testing.T) {
	for _, n := range []int{17, 33, 64, 96} {
		t.Run(fmt.Sprintf("%d", n), func(t *testing.T) { checkSize(t, n) })
	}
	t.Run("holey", func(t *testing.T) {
		for _, name := range volume.Datasets {
			r := &Renderer{Vol: volume.ByName(name, 33), TF: holeyTF()}
			if r.transparentDownwardClosed() {
				t.Fatal("holey transfer function reported downward closed")
			}
			rv := NewRLEVolume(r.Vol, r.TF)
			for _, cam := range sixCases {
				v, err := r.Factor(cam)
				if err != nil {
					t.Fatal(err)
				}
				checkKernel(t, r, rv, v, fmt.Sprintf("%s 33³ holey TF cam=%+v", name, cam))
			}
		}
	})
}

// checkSize runs checkKernel for every dataset at n³, over the full camera
// grid at small sizes and two of the six principal-axis/flip cases per
// dataset at large ones.
func checkSize(t *testing.T, n int) {
	type axisCase struct {
		axis int
		flip bool
	}
	axes := map[axisCase]bool{}
	for d, name := range volume.Datasets {
		cams := kernelCameras
		if n >= 64 {
			// Two cases per dataset: all six across the datasets.
			cams = []Camera{sixCases[2*d%6], sixCases[(2*d+1)%6]}
		}
		r := testRenderer(name, n)
		rv := NewRLEVolume(r.Vol, r.TF)
		for _, cam := range cams {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			axes[axisCase{v.perm[2], v.flip[2]}] = true
			checkKernel(t, r, rv, v, fmt.Sprintf("%s %d³ cam=%+v", name, n, cam))
		}
	}
	if len(axes) != 6 {
		t.Fatalf("%d³: cameras covered principal-axis/flip cases %v, want all 6", n, axes)
	}
}

// TestRenderKernelAllocs bounds RenderSlab to its output image and one
// scratch buffer, however many slices it composites.
func TestRenderKernelAllocs(t *testing.T) {
	r := testRenderer("engine", 48)
	v, err := r.Factor(Camera{Yaw: 0.35, Pitch: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wi, hi := v.IntermediateSize()
	image := testing.AllocsPerRun(10, func() { raster.New(wi, hi) })
	got := testing.AllocsPerRun(10, func() {
		if _, err := r.RenderSlab(v, 0, v.NK()); err != nil {
			t.Fatal(err)
		}
	})
	if got > image+1 {
		t.Fatalf("RenderSlab allocates %v objects per call, want at most %v (the image's %v and one scratch buffer)",
			got, image+1, image)
	}
}

// FuzzRenderSlabMatchesReference renders fuzzed small volumes under fuzzed
// ramp transfer functions, cameras and slabs, and requires RenderSlab and
// RenderSlabRLE to match the reference byte for byte.
func FuzzRenderSlabMatchesReference(f *testing.F) {
	f.Add(uint8(7), uint8(5), uint8(6), []byte{0, 90, 200, 255, 30, 140}, uint8(40), uint8(160), uint8(255), uint8(200), 0.35, 0.2, uint8(0), uint8(255))
	f.Add(uint8(3), uint8(9), uint8(4), []byte{255, 0, 0, 128}, uint8(0), uint8(1), uint8(90), uint8(255), 2.9, -1.1, uint8(1), uint8(2))
	f.Add(uint8(11), uint8(2), uint8(8), []byte{10, 20, 250}, uint8(100), uint8(100), uint8(255), uint8(255), -1.4, 0.6, uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, data []byte, lo, hi, maxV, maxA uint8, yaw, pitch float64, kLo, kHi uint8) {
		if math.IsNaN(yaw) || math.IsInf(yaw, 0) || math.IsNaN(pitch) || math.IsInf(pitch, 0) {
			t.Skip()
		}
		vol := volume.New(1+int(nx%12), 1+int(ny%12), 1+int(nz%12))
		for i := range vol.Data {
			if len(data) > 0 {
				vol.Data[i] = data[i%len(data)] + uint8(i/len(data))*37
			}
		}
		r := &Renderer{Vol: vol, TF: xfer.Ramp(lo, hi, maxV, maxA)}
		v, err := r.Factor(Camera{Yaw: math.Mod(yaw, 8), Pitch: math.Mod(pitch, 8)})
		if err != nil {
			t.Skip()
		}
		k0 := int(kLo) % (v.NK() + 1)
		k1 := k0 + int(kHi)%(v.NK()-k0+1)
		want, err := r.renderSlabReference(v, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.RenderSlab(v, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(got, want) {
			t.Fatalf("RenderSlab differs from the reference (maxdiff %d)", raster.MaxDiff(got, want))
		}
		if got, err = r.RenderSlabRLE(NewRLEVolume(vol, r.TF), v, k0, k1); err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(got, want) {
			t.Fatalf("RenderSlabRLE differs from the reference (maxdiff %d)", raster.MaxDiff(got, want))
		}
	})
}
