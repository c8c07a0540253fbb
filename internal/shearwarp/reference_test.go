package shearwarp

import (
	"fmt"
	"math"

	"rtcomp/internal/raster"
)

// renderSlabReference is the plain slab renderer the render kernel
// replaced, frozen verbatim together with its helpers: every pixel of the
// slice footprint is sampled with the generic bilinear loop, from a slice
// extracted voxel by voxel through Volume.At. The kernel's entry points
// must reproduce it byte for byte; it is the oracle of the differential
// and fuzz tests and must not be edited to follow the kernel.
func (r *Renderer) renderSlabReference(v *View, kLo, kHi int) (*raster.Image, error) {
	if kLo < 0 || kHi > v.nk || kLo > kHi {
		return nil, fmt.Errorf("shearwarp: slab [%d,%d) outside [0,%d)", kLo, kHi, v.nk)
	}
	out := raster.New(v.wi, v.hi)
	slice := make([]uint8, v.ni*v.nj)
	for k := kLo; k < kHi; k++ {
		r.refExtractSlice(v, k, slice)
		ui := v.oi + v.si*float64(k)
		vj := v.oj + v.sj*float64(k)
		u0 := int(math.Floor(ui))
		v0 := int(math.Floor(vj))
		for v1 := v0; v1 <= v0+v.nj; v1++ {
			if v1 < 0 || v1 >= v.hi {
				continue
			}
			jf := float64(v1) - vj
			for u1 := u0; u1 <= u0+v.ni; u1++ {
				if u1 < 0 || u1 >= v.wi {
					continue
				}
				// Early termination: a fully opaque accumulation cannot
				// change, so skipping is exact.
				pi := (v1*v.wi + u1) * raster.BytesPerPixel
				if out.Pix[pi+1] == 255 {
					continue
				}
				ifl := float64(u1) - ui
				s, ok := refBilinear(slice, v.ni, v.nj, ifl, jf)
				if !ok {
					continue
				}
				val, a := r.TF.Classify(s)
				if a == 0 {
					continue
				}
				refOverPixel(out.Pix[pi:pi+2:pi+2], val, a)
			}
		}
	}
	return out, nil
}

// refVoxel reads the volume in the permuted+flipped frame.
func (r *Renderer) refVoxel(v *View, i, j, k int) uint8 {
	var p [3]int
	coords := [3]int{i, j, k}
	lims := [3]int{v.ni, v.nj, v.nk}
	for c := 0; c < 3; c++ {
		x := coords[c]
		if v.flip[c] {
			x = lims[c] - 1 - x
		}
		p[v.perm[c]] = x
	}
	return r.Vol.At(p[0], p[1], p[2])
}

// refExtractSlice copies slice k into a contiguous ni x nj scalar buffer.
func (r *Renderer) refExtractSlice(v *View, k int, buf []uint8) {
	idx := 0
	for j := 0; j < v.nj; j++ {
		for i := 0; i < v.ni; i++ {
			buf[idx] = r.refVoxel(v, i, j, k)
			idx++
		}
	}
}

// refOverPixel composites the classified sample behind the accumulated
// pixel: acc = acc over sample (front-to-back accumulation).
func refOverPixel(acc []uint8, bv, ba uint8) {
	fa := acc[1]
	if fa == 255 {
		return
	}
	if fa == 0 {
		acc[0], acc[1] = bv, ba
		return
	}
	fv := acc[0]
	inv := uint32(255 - fa)
	ca := uint32(fa)*255 + inv*uint32(ba)
	cv := uint32(fv)*uint32(fa)*255 + inv*uint32(ba)*uint32(bv)
	a := (ca + 127) / 255
	var val uint32
	if ca > 0 {
		val = (cv + ca/2) / ca
	}
	acc[0], acc[1] = uint8(val), uint8(a)
}

// refBilinear samples the slice buffer at fractional (i, j); samples
// outside the slice report no contribution.
func refBilinear(slice []uint8, ni, nj int, i, j float64) (uint8, bool) {
	if i <= -1 || j <= -1 || i >= float64(ni) || j >= float64(nj) {
		return 0, false
	}
	i0 := int(math.Floor(i))
	j0 := int(math.Floor(j))
	fi := i - float64(i0)
	fj := j - float64(j0)
	var acc, wsum float64
	for dj := 0; dj <= 1; dj++ {
		for di := 0; di <= 1; di++ {
			ii, jj := i0+di, j0+dj
			if ii < 0 || jj < 0 || ii >= ni || jj >= nj {
				continue
			}
			w := (1 - math.Abs(float64(di)-fi)) * (1 - math.Abs(float64(dj)-fj))
			acc += w * float64(slice[jj*ni+ii])
			wsum += w
		}
	}
	if wsum == 0 {
		return 0, false
	}
	return uint8(acc/wsum + 0.5), true
}
