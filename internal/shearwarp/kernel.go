package shearwarp

import (
	"math"

	"rtcomp/internal/raster"
)

// The render kernel. Every slab and tile entry point composites its slices
// through renderRect, one slice at a time, and each output row of a slice
// through three steps:
//
//  1. The two slice rows j0 and j0+1 under the output row are extracted on
//     first use, with the volume strides of the permuted+flipped frame
//     resolved once per view (a contiguous row is a plain copy).
//  2. Each extracted row records the column range of its non-transparent
//     voxels.
//  3. The output row is composited over just the columns whose 2x2 sample
//     footprint, in rows j0 and j0+1, can reach those ranges.
//
// Step 3 is exact whenever the transfer function's transparent scalars are
// downward closed: a bilinear sample is a convex combination of its
// footprint, so a footprint of transparent voxels yields a transparent
// sample, which compositing skips anyway. Otherwise every row keeps its
// full bounds. Interior samples are computed inline with bilinear's float
// expressions in bilinear's order, so every pixel is byte-identical to
// sampling the whole footprint with bilinear.

// sliceRows serves the rows of one slice: it extracts a row into vox on
// first use and caches the non-transparent column ranges of the last two
// rows, which is all an output row needs as j0 advances.
type sliceRows struct {
	vox    []uint8 // ni x nj slice scalars; the kernel's one scratch buffer
	ni     int
	data   []uint8 // the volume to extract from; nil once vox is filled
	base   int     // data index of slice voxel (0, 0)
	si, sj int     // data strides of the slice axes i and j
	alpha  *[256]uint8
	exact  bool // whether transparent columns may be skipped
	cached [2]struct{ j, lo, hi int }
}

// reset points the rows at a new slice.
func (s *sliceRows) reset(base int) {
	s.base = base
	s.cached[0].j, s.cached[1].j = -1, -1
}

// bounds extracts row j if needed and reports the inclusive column range
// [lo, hi] that can be non-transparent (empty when lo > hi).
func (s *sliceRows) bounds(j int) (lo, hi int) {
	c := &s.cached[j&1]
	if c.j == j {
		return c.lo, c.hi
	}
	row := s.vox[j*s.ni : (j+1)*s.ni]
	if s.data != nil {
		p := s.base + j*s.sj
		if s.si == 1 {
			copy(row, s.data[p:p+s.ni])
		} else {
			for i := range row {
				row[i] = s.data[p]
				p += s.si
			}
		}
	}
	lo, hi = 0, s.ni-1
	if s.exact {
		for lo <= hi && s.alpha[row[lo]] == 0 {
			lo++
		}
		for hi >= lo && s.alpha[row[hi]] == 0 {
			hi--
		}
	}
	c.j, c.lo, c.hi = j, lo, hi
	return lo, hi
}

// sliceOrigin reports where slice k's voxel (0, 0) lands in the
// intermediate image, and the integer floor of that position.
func (v *View) sliceOrigin(k int) (ui, vj float64, u0, v0 int) {
	ui = v.oi + v.si*float64(k)
	vj = v.oj + v.sj*float64(k)
	return ui, vj, int(math.Floor(ui)), int(math.Floor(vj))
}

// renderRect composites slices [kLo, kHi) front to back over the rectangle
// [x0,x1) x [y0,y1) of out. Slices come from rv when it is non-nil, which
// the caller allows only for a downward-closed transfer function.
func (r *Renderer) renderRect(v *View, rv *RLEVolume, kLo, kHi, x0, y0, x1, y1 int, out *raster.Image) {
	s := &sliceRows{vox: make([]uint8, v.ni*v.nj), ni: v.ni, alpha: &r.TF.Alpha,
		exact: r.transparentDownwardClosed()}
	// Data strides of the view axes i, j, k and the index of voxel (0,0,0).
	objStride := [3]int{1, r.Vol.NX, r.Vol.NX * r.Vol.NY}
	lims := [3]int{v.ni, v.nj, v.nk}
	var stride [3]int
	base := 0
	for c := 0; c < 3; c++ {
		stride[c] = objStride[v.perm[c]]
		if v.flip[c] {
			base += (lims[c] - 1) * stride[c]
			stride[c] = -stride[c]
		}
	}
	s.si, s.sj = stride[0], stride[1]
	if rv == nil {
		s.data = r.Vol.Data
	}
	for k := kLo; k < kHi; k++ {
		_, _, u0, v0 := v.sliceOrigin(k)
		if u0 >= x1 || u0+v.ni < x0 || v0 >= y1 || v0+v.nj < y0 {
			continue // the slice's footprint misses the rectangle
		}
		if rv != nil {
			rv.fill(v, k, s.vox)
		}
		s.reset(base + k*stride[2])
		r.compositeSlice(out, v, k, s, x0, y0, x1, y1)
	}
}

// compositeSlice composites slice k behind the accumulation in the
// rectangle [x0,x1) x [y0,y1) of out.
func (r *Renderer) compositeSlice(out *raster.Image, v *View, k int, s *sliceRows, x0, y0, x1, y1 int) {
	ni, nj := v.ni, v.nj
	ui, vj, u0, v0 := v.sliceOrigin(k)
	for v1 := max(v0, y0); v1 <= min(v0+nj, y1-1); v1++ {
		jf := float64(v1) - vj
		if jf <= -1 || jf >= float64(nj) {
			continue
		}
		j0 := int(math.Floor(jf))
		cLo, cHi := ni, -1
		for j := max(j0, 0); j <= min(j0+1, nj-1); j++ {
			lo, hi := s.bounds(j)
			cLo, cHi = min(cLo, lo), max(cHi, hi)
		}
		// Only columns in (i-1, i+1) carry weight in the sample at i, and
		// the sample at u0+d has i in [d-1, d], so it can reach columns
		// [cLo, cHi] only for d in [cLo, cHi+1].
		uLo := max(u0+cLo, x0)
		uHi := min(u0+cHi+1, x1-1)
		interior := j0 >= 0 && j0+1 < nj
		var row0, row1 []uint8
		var wy0, wy1 float64
		if interior {
			row0, row1 = s.vox[j0*ni:(j0+1)*ni], s.vox[(j0+1)*ni:(j0+2)*ni]
			fj := jf - float64(j0)
			wy0, wy1 = 1-fj, 1-(1-fj)
		}
		for u1 := uLo; u1 <= uHi; u1++ {
			// Early termination: a fully opaque accumulation cannot
			// change, so skipping is exact.
			pi := (v1*v.wi + u1) * raster.BytesPerPixel
			if out.Pix[pi+1] == 255 {
				continue
			}
			ifl := float64(u1) - ui
			var sample uint8
			if i0 := int(ifl); interior && ifl >= 0 && i0+1 < ni {
				// bilinear's four in-range terms, in its order.
				fi := ifl - float64(i0)
				wx0, wx1 := 1-fi, 1-(1-fi)
				var acc, wsum float64
				w := wx0 * wy0
				acc += w * float64(row0[i0])
				wsum += w
				w = wx1 * wy0
				acc += w * float64(row0[i0+1])
				wsum += w
				w = wx0 * wy1
				acc += w * float64(row1[i0])
				wsum += w
				w = wx1 * wy1
				acc += w * float64(row1[i0+1])
				wsum += w
				sample = uint8(acc/wsum + 0.5)
			} else {
				var ok bool
				if sample, ok = bilinear(s.vox, ni, nj, ifl, jf); !ok {
					continue
				}
			}
			val, a := r.TF.Classify(sample)
			if a == 0 {
				continue
			}
			overPixel(out.Pix[pi:pi+2:pi+2], val, a)
		}
	}
}
