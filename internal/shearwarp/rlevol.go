package shearwarp

import (
	"fmt"

	"rtcomp/internal/raster"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

// RLEVolume is the run-length encoded classified volume of Lacroute &
// Levoy — the data structure that makes shear-warp fast. The volume is
// encoded three times, once per principal axis, as per-row runs covering
// only the voxels that can contribute to the image: voxels within one
// in-plane step of a non-transparent voxel (the one-voxel dilation keeps
// bilinear resampling byte-exact at run boundaries). Rendering a frame
// then touches memory proportional to the visible data, not the volume.
//
// An RLEVolume is built against one transfer function; rendering it with a
// different classification would skip the wrong voxels, so the renderer
// checks the pairing.
type RLEVolume struct {
	tf     *xfer.Func
	dims   [3]int
	axes   [3]axisRLE
	stored int64
}

type axisRLE struct {
	ni, nj, nk int
	// rows[k*nj + j] is the run list of row j in slice k, in the unflipped
	// permuted frame of this principal axis.
	rows []rleRow
}

// runInterval is a half-open stored column interval [lo, hi).
type runInterval struct {
	lo, hi int
}

type rleRow struct {
	intervals []runInterval
	vals      []uint8 // concatenated scalars of the intervals' voxels
}

// NewRLEVolume classifies vol through tf and builds the three per-axis
// encodings.
func NewRLEVolume(vol *volume.Volume, tf *xfer.Func) *RLEVolume {
	rv := &RLEVolume{tf: tf, dims: [3]int{vol.NX, vol.NY, vol.NZ}}
	for axis := 0; axis < 3; axis++ {
		rv.axes[axis] = rv.encodeAxis(vol, axis)
	}
	return rv
}

// encodeAxis builds the encoding for one principal axis: permuted frame
// (i, j, k) = ((axis+1)%3, (axis+2)%3, axis), matching Renderer.Factor.
func (rv *RLEVolume) encodeAxis(vol *volume.Volume, axis int) axisRLE {
	perm := [3]int{(axis + 1) % 3, (axis + 2) % 3, axis}
	dims := [3]int{vol.NX, vol.NY, vol.NZ}
	ni, nj, nk := dims[perm[0]], dims[perm[1]], dims[perm[2]]
	enc := axisRLE{ni: ni, nj: nj, nk: nk, rows: make([]rleRow, nj*nk)}

	slice := make([]uint8, ni*nj)
	opaque := make([]bool, ni*nj)
	var p [3]int
	for k := 0; k < nk; k++ {
		p[perm[2]] = k
		idx := 0
		for j := 0; j < nj; j++ {
			p[perm[1]] = j
			for i := 0; i < ni; i++ {
				p[perm[0]] = i
				s := vol.At(p[0], p[1], p[2])
				slice[idx] = s
				opaque[idx] = rv.tf.Alpha[s] != 0
				idx++
			}
		}
		for j := 0; j < nj; j++ {
			row := rleRow{}
			// Stored iff any opaque voxel within the in-plane 3x3
			// neighbourhood.
			stored := func(i int) bool {
				for dj := -1; dj <= 1; dj++ {
					jj := j + dj
					if jj < 0 || jj >= nj {
						continue
					}
					for di := -1; di <= 1; di++ {
						ii := i + di
						if ii >= 0 && ii < ni && opaque[jj*ni+ii] {
							return true
						}
					}
				}
				return false
			}
			inRun, lo := false, 0
			flush := func(hi int) {
				row.intervals = append(row.intervals, runInterval{lo, hi})
				row.vals = append(row.vals, slice[j*ni+lo:j*ni+hi]...)
				rv.stored += int64(hi - lo)
			}
			for i := 0; i < ni; i++ {
				st := stored(i)
				if st && !inRun {
					lo, inRun = i, true
				}
				if !st && inRun {
					flush(i)
					inRun = false
				}
			}
			if inRun {
				flush(ni)
			}
			enc.rows[k*nj+j] = row
		}
	}
	return enc
}

// StoredFraction reports the stored voxels across all three encodings as a
// fraction of three full copies — the compression the encoding achieves.
func (rv *RLEVolume) StoredFraction() float64 {
	total := 3 * rv.dims[0] * rv.dims[1] * rv.dims[2]
	return float64(rv.stored) / float64(total)
}

// RenderSlabRLE renders slices [kLo, kHi) of the view from the encoded
// volume, byte-identical to RenderSlab. It requires the view to come from
// a renderer bound to the same volume dimensions and the same transfer
// function the encoding was built with, and falls back to the plain path
// when the transfer function's transparent set is not downward closed.
func (r *Renderer) RenderSlabRLE(rv *RLEVolume, v *View, kLo, kHi int) (*raster.Image, error) {
	if rv.tf != r.TF {
		return nil, fmt.Errorf("shearwarp: RLE volume was encoded with a different transfer function")
	}
	if rv.dims != [3]int{r.Vol.NX, r.Vol.NY, r.Vol.NZ} {
		return nil, fmt.Errorf("shearwarp: RLE volume dims %v do not match renderer volume", rv.dims)
	}
	if !r.transparentDownwardClosed() {
		return r.RenderSlab(v, kLo, kHi)
	}
	if kLo < 0 || kHi > v.nk || kLo > kHi {
		return nil, fmt.Errorf("shearwarp: slab [%d,%d) outside [0,%d)", kLo, kHi, v.nk)
	}
	out := raster.New(v.wi, v.hi)
	r.renderRect(v, rv, kLo, kHi, 0, 0, v.wi, v.hi, out)
	return out, nil
}

// fill materializes slice k of the view from the stored runs, in view
// coordinates, with zeros for the voxels the encoding dropped. A dropped
// voxel has no non-transparent voxel in its 3x3 neighbourhood, so every
// sample footprint containing it is transparent either way.
func (rv *RLEVolume) fill(v *View, k int, vox []uint8) {
	enc := &rv.axes[v.perm[2]]
	ko := k
	if v.flip[2] {
		ko = v.nk - 1 - k
	}
	clear(vox)
	for j := 0; j < v.nj; j++ {
		jo := j
		if v.flip[1] {
			jo = v.nj - 1 - j
		}
		row := &enc.rows[ko*v.nj+jo]
		dst := vox[j*v.ni : (j+1)*v.ni]
		off := 0
		for _, iv := range row.intervals {
			vals := row.vals[off : off+iv.hi-iv.lo]
			off += iv.hi - iv.lo
			if !v.flip[0] {
				copy(dst[iv.lo:], vals)
				continue
			}
			for x, val := range vals {
				dst[v.ni-1-(iv.lo+x)] = val
			}
		}
	}
}
