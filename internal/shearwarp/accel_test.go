package shearwarp

import (
	"testing"

	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// The accelerated path must produce byte-identical output to the frozen
// plain renderer: the skip test is exact for downward-closed transparent
// sets.
func TestAccelMatchesPlainExactly(t *testing.T) {
	for _, name := range volume.Datasets {
		r := testRenderer(name, 32)
		for _, cam := range []Camera{{}, {Yaw: 0.35, Pitch: -0.25}, {Yaw: -0.7, Pitch: 0.4}} {
			v, err := r.Factor(cam)
			if err != nil {
				t.Fatal(err)
			}
			slabs, err := partition.Slabs1D(v.NK(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range slabs {
				plain, err := r.renderSlabReference(v, s.Lo, s.Hi)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := r.RenderSlab(v, s.Lo, s.Hi)
				if err != nil {
					t.Fatal(err)
				}
				if !raster.Equal(plain, fast) {
					t.Fatalf("%s cam=%+v slab=%+v: accelerated output differs (maxdiff %d)",
						name, cam, s, raster.MaxDiff(plain, fast))
				}
			}
		}
	}
}

func TestAccelFallsBackOnNonMonotoneTF(t *testing.T) {
	// A transfer function with a transparent hole in the middle of the
	// opaque range: the skip test would be unsound, so the accelerated
	// path must fall back (and still be correct, trivially).
	tf := xfer.Ramp(50, 200, 255, 200)
	tf.Alpha[120] = 0 // hole
	r := &Renderer{Vol: volume.Head(24), TF: tf}
	if r.transparentDownwardClosed() {
		t.Fatal("holey transfer function reported downward closed")
	}
	v, err := r.Factor(Camera{Yaw: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r.renderSlabReference(v, 0, v.NK())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := r.RenderSlab(v, 0, v.NK())
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(plain, fast) {
		t.Fatal("fallback path differs from plain path")
	}
}

func TestTransparentDownwardClosed(t *testing.T) {
	for _, name := range volume.Datasets {
		r := testRenderer(name, 8)
		if !r.transparentDownwardClosed() {
			t.Fatalf("%s preset should be downward closed", name)
		}
	}
}

func TestAccelSlabBounds(t *testing.T) {
	r := testRenderer("engine", 16)
	v, _ := r.Factor(Camera{})
	if _, err := r.RenderSlab(v, -1, 2); err == nil {
		t.Fatal("negative slab accepted")
	}
}

func BenchmarkRenderSlabPlain(b *testing.B) {
	r := testRenderer("head", 128)
	v, err := r.Factor(Camera{Yaw: 0.35, Pitch: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RenderSlab(v, 0, v.NK()); err != nil {
			b.Fatal(err)
		}
	}
}
