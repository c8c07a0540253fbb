package core

import (
	"sync"
	"testing"

	"rtcomp/internal/compositor"
	"rtcomp/internal/raster"
)

// The pipelined core path must be invisible in the output: same intermediate
// image, same final frame, with composition merely rescheduled around the
// banded render. Both paths merge a step's messages in arrival order, and
// 8-bit "over" is not associative, so schedules whose steps carry several
// incoming fragments (direct-send) may re-associate and land off by a
// quantisation unit per pixel — the same tolerance the serial-oracle core
// tests use. Byte-exactness under reordering is proven separately on binary
// alpha by the compositor differential matrix.
func TestPipelinedCorePreservesOutput(t *testing.T) {
	for _, method := range []string{"bs", "2nrt:4", "ds"} {
		cfg := testConfig(4, method)
		plain, err := RenderParallel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		cfg.Pipeline = true
		cfg.InterleaveSeed = 7
		piped, err := RenderParallel(cfg)
		if err != nil {
			t.Fatalf("%s pipelined: %v", method, err)
		}
		if d := raster.MaxDiff(plain.Intermediate, piped.Intermediate); d > 2 {
			t.Fatalf("%s: pipelined intermediate differs from synchronous (maxdiff %d)", method, d)
		}
		if d := raster.MaxDiff(plain.Image, piped.Image); d > 2 {
			t.Fatalf("%s: pipelined final image differs from synchronous (maxdiff %d)", method, d)
		}
	}
}

// The RLE renderer disables the streaming Source (the render finishes
// before composition starts) but not the pipelined composition; output must
// still be identical.
func TestPipelinedCoreWithAcceleration(t *testing.T) {
	cfg := testConfig(4, "nrt:4")
	cfg.RLE = true
	plain, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline = true
	piped, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(plain.Intermediate, piped.Intermediate) {
		t.Fatal("pipelined RLE-render intermediate differs from synchronous")
	}
}

// Progressive delivery through the core facade: rank 0 must see every tile
// of the intermediate image exactly once, monotonically counted, and the
// streamed pixels must match the final intermediate image.
func TestPipelinedCoreProgressiveFrames(t *testing.T) {
	cfg := testConfig(4, "2nrt:4")
	cfg.Pipeline = true
	var mu sync.Mutex
	type frame struct {
		f   compositor.PartialFrame
		pix []byte
	}
	var frames []frame
	cfg.OnPartialFrame = func(f compositor.PartialFrame) {
		mu.Lock()
		frames = append(frames, frame{f, append([]byte(nil), f.Pix...)})
		mu.Unlock()
	}
	rep, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cfg.Method.Schedule(cfg.P)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != sched.Tiles {
		t.Fatalf("delivered %d progressive tiles, want %d", len(frames), sched.Tiles)
	}
	covered := 0
	seen := map[int]bool{}
	for i, fr := range frames {
		if seen[fr.f.Tile] {
			t.Fatalf("tile %d delivered twice", fr.f.Tile)
		}
		seen[fr.f.Tile] = true
		if fr.f.Done != i+1 || fr.f.Total != sched.Tiles {
			t.Errorf("frame %d: Done/Total = %d/%d, want %d/%d", i, fr.f.Done, fr.f.Total, i+1, sched.Tiles)
		}
		covered += fr.f.Span.Len()
		want := rep.Intermediate.SpanBytes(fr.f.Span)
		for b := range fr.pix {
			if fr.pix[b] != want[b] {
				t.Errorf("tile %d: streamed pixels differ from the final intermediate", fr.f.Tile)
				break
			}
		}
	}
	if covered != rep.Intermediate.NPixels() {
		t.Fatalf("progressive tiles cover %d pixels, want %d", covered, rep.Intermediate.NPixels())
	}
}

// The streaming source's row gating must be exact: a banded render under
// the pipelined compositor reproduces the one-shot render bit for bit even
// with a tiny in-flight window (maximum gating pressure).
func TestPipelinedCoreWindowOne(t *testing.T) {
	cfg := testConfig(4, "nrt:3")
	plain, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline = true
	cfg.PipelineWindow = 1
	piped, err := RenderParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(plain.Intermediate, piped.Intermediate) {
		t.Fatal("window-1 pipelined intermediate differs from synchronous")
	}
}
