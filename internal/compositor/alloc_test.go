package compositor

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/inproc"
)

// allocBudgetPerStep is the ceiling on steady-state heap allocations per
// composition step, counted across BOTH ranks of a two-rank ping-pong (send
// encode+transport on one side, receive decode+merge on the other). The
// remaining allocations are slice headers the fragment store rebuilds per
// merge, not payload buffers — those all recycle through the pool.
const allocBudgetPerStep = 4

// pingPongSchedule bounces the single tile block between two ranks for the
// given number of steps: the steady-state composition step (take, encode,
// send / receive, decode, merge) with no halvings and no gather, so the
// per-step allocation count isolates the hot path.
func pingPongSchedule(steps int) *schedule.Schedule {
	s := &schedule.Schedule{Name: "pingpong", P: 2, Tiles: 1}
	for i := 0; i < steps; i++ {
		from := i % 2
		s.Steps = append(s.Steps, schedule.Step{Transfers: []schedule.Transfer{
			{From: from, To: 1 - from, Block: schedule.Block{Tile: 0}},
		}})
	}
	return s
}

// composeAllocs measures the total heap allocations of one full ping-pong
// composition of the given length (fabric setup and staging included).
func composeAllocs(t *testing.T, steps int, cdc codec.Codec, layers []*raster.Image) float64 {
	t.Helper()
	sched := pingPongSchedule(steps)
	opts := Options{Codec: cdc, GatherRoot: -1}
	return testing.AllocsPerRun(10, func() {
		err := inproc.Run(2, func(c comm.Comm) error {
			_, _, err := Run(c, sched, layers[c.Rank()], opts)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateComposeAllocs asserts the allocation-free steady state of
// the composition step loop: the per-run fixed costs (fabric, store, report,
// goroutines) are cancelled differentially by comparing a long run against a
// short one, leaving the marginal allocations of one extra step.
func TestSteadyStateComposeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	const w, h = 64, 64
	layers := make([]*raster.Image, 2)
	for r := range layers {
		layers[r] = raster.New(w, h)
		for i := range layers[r].Pix {
			layers[r].Pix[i] = uint8((i + 7*r) % 251)
		}
	}
	for _, tc := range []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", codec.Raw{}},
		{"rle", codec.RLE{}},
		{"trle", codec.TRLE{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const short, long = 4, 64
			base := composeAllocs(t, short, tc.cdc, layers)
			full := composeAllocs(t, long, tc.cdc, layers)
			perStep := (full - base) / float64(long-short)
			t.Logf("allocs: %d steps = %.0f, %d steps = %.0f, per step = %.2f",
				short, base, long, full, perStep)
			if perStep > allocBudgetPerStep {
				t.Fatalf("steady-state composition allocates %.2f objects/step, budget %d",
					perStep, allocBudgetPerStep)
			}
		})
	}
}

// TestComposeScratchReuseAcrossSteps pins that the scratch-threaded step
// loop produces the same image as the per-step-allocating layout it
// replaced: a long ping-pong must leave the complete composite (all P
// layers, in depth order) on the final holder.
func TestComposeScratchReuseAcrossSteps(t *testing.T) {
	const w, h, steps = 16, 3, 7
	layers := make([]*raster.Image, 2)
	for r := range layers {
		layers[r] = raster.New(w, h)
		layers[r].Fill(uint8(40+100*r), uint8(90+60*r))
	}
	sched := pingPongSchedule(steps)
	finals := make([]*raster.Image, 2)
	err := inproc.Run(2, func(c comm.Comm) error {
		img, rep, err := Run(c, sched, layers[c.Rank()], Options{GatherRoot: 0})
		if err != nil {
			return err
		}
		if rep.Degraded {
			return fmt.Errorf("rank %d: unexpected degradation", c.Rank())
		}
		finals[c.Rank()] = img
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := compose.SerialComposite(layers)
	if got := finals[0]; got == nil {
		t.Fatal("no final image on the gather root")
	} else {
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("pixel byte %d = %d, want %d", i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestRecoverSteadyStateAllocBytes: once the buffer pool is warm, the
// Recover policy's fault-free overhead — buddy replication plus the
// agreement — must allocate less than one sub-image per rank. The replica is
// encoded into the run scratch, decoded into a pooled buffer and released
// at the end of the run, so replication adds no per-frame pixel garbage.
// The overhead is measured against the same run under the fail policy,
// which cancels what both policies share (fabric, step loop, gather).
func TestRecoverSteadyStateAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	const w, h = 128, 128
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]*raster.Image, sched.P)
	for r := range layers {
		layers[r] = raster.New(w, h)
		for i := range layers[r].Pix {
			layers[r].Pix[i] = uint8((i + 7*r) % 251)
		}
	}
	perRank := func(opts Options) float64 {
		run := func() {
			err := inproc.Run(sched.P, func(c comm.Comm) error {
				_, _, err := Run(c, sched, layers[c.Rank()], opts)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			run() // warm the buffer pool and the scratch pool
		}
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (runs * float64(sched.P))
	}
	fail := perRank(Options{Codec: codec.Raw{}, RecvTimeout: 10 * time.Second})
	recov := perRank(Options{Codec: codec.Raw{}, RecvTimeout: 10 * time.Second, OnMissing: Recover})
	subImage := float64(w * h * raster.BytesPerPixel)
	t.Logf("bytes per rank: fail %.0f, recover %.0f (sub-image %.0f)", fail, recov, subImage)
	if recov-fail >= subImage {
		t.Fatalf("recover policy allocates %.0f bytes per rank beyond the fail policy, want < one sub-image (%.0f)",
			recov-fail, subImage)
	}
}
