package shearwarp

// Opacity-coherence acceleration (the spirit of Lacroute's run-length
// encoded volume traversal): almost all volume data classifies to
// transparent, so the render kernel bounds every output row to the columns
// whose sample footprint can reach a non-transparent voxel (kernel.go).
//
// The skip is exact whenever the transfer function's transparent scalars
// form a downward-closed interval [0, lo): bilinear interpolation is a
// convex combination, so four transparent voxels can only produce a
// transparent sample. transparentDownwardClosed reports whether a transfer
// function qualifies; the kernel keeps full row bounds when it does not.

// transparentDownwardClosed reports whether the set of scalars classified
// fully transparent is exactly [0, k) for some k — the condition under
// which skipping all-transparent voxel neighbourhoods is lossless.
func (r *Renderer) transparentDownwardClosed() bool {
	seenOpaque := false
	for s := 0; s < 256; s++ {
		if r.TF.Alpha[s] != 0 {
			seenOpaque = true
		} else if seenOpaque {
			return false
		}
	}
	return true
}
