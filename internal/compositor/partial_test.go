package compositor

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/faulty"
)

// The OnPartial handoff suite: the progressive-frame callback runs on a
// dedicated pump goroutine behind a bounded buffer, so a slow — or wedged —
// consumer can never stall the receiver loop or deadlock the run.

// TestPartialDropWedgedConsumer wedges the OnPartial callback completely
// (it blocks until the run is over) under the drop policy: the composition
// must still finish promptly, and the overflow must be visible in the
// drop counter.
func TestPartialDropWedgedConsumer(t *testing.T) {
	const p, w, h = 4, 33, 15
	cdc, err := codec.ByName("rle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8505))
	layers := makeLayers(rng, p, w, h, true)
	want := runInproc(t, sched, layers, cdc)

	rec := telemetry.New()
	release := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	first := true
	opts := Options{
		Codec:       cdc,
		GatherRoot:  0,
		RecvTimeout: 10 * time.Second,
		Telemetry:   rec,
		Pipeline: PipelineConfig{
			Enabled:       true,
			PartialBuffer: 1,
			PartialPolicy: PartialDrop,
			OnPartial: func(PartialFrame) {
				if first {
					first = false
					wedged.Done()
					<-release // wedge: hold the pump goroutine hostage
				}
			},
		},
	}
	got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
	close(release)
	wedged.Wait()
	if !raster.Equal(got, want) {
		t.Fatalf("wedged-consumer image differs from oracle: maxdiff=%d", raster.MaxDiff(got, want))
	}
	if d := sumCounter(rec, telemetry.CtrPartialDrops); d < 1 {
		t.Fatalf("no partial drops recorded: the wedged consumer never overflowed the buffer (tiles=%d)", sched.Tiles)
	}
}

// TestPartialBlockDeliversAll runs the blocking policy with a slow-but-live
// consumer: every tile must be delivered exactly once, in completion order,
// with monotonically increasing Done counts — and all of it before Run
// returns on the root.
func TestPartialBlockDeliversAll(t *testing.T) {
	const p, w, h = 4, 27, 9
	cdc, err := codec.ByName("trle")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.NRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8606))
	layers := makeLayers(rng, p, w, h, false)
	want := runInproc(t, sched, layers, cdc)

	var mu sync.Mutex
	var frames []PartialFrame
	opts := Options{
		Codec:       cdc,
		GatherRoot:  0,
		RecvTimeout: 10 * time.Second,
		Pipeline: PipelineConfig{
			Enabled:       true,
			PartialBuffer: 1,
			PartialPolicy: PartialBlock,
			OnPartial: func(f PartialFrame) {
				time.Sleep(2 * time.Millisecond) // slow consumer, buffer must absorb
				mu.Lock()
				frames = append(frames, f)
				mu.Unlock()
			},
		},
	}
	got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
	if !raster.Equal(got, want) {
		t.Fatalf("partial-block image differs from oracle: maxdiff=%d", raster.MaxDiff(got, want))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) != sched.Tiles {
		t.Fatalf("got %d partial frames, want %d (one per tile)", len(frames), sched.Tiles)
	}
	seen := map[int]bool{}
	for i, f := range frames {
		if seen[f.Tile] {
			t.Fatalf("tile %d delivered twice", f.Tile)
		}
		seen[f.Tile] = true
		if f.Done != i+1 || f.Total != sched.Tiles {
			t.Fatalf("frame %d: Done=%d Total=%d, want Done=%d Total=%d", i, f.Done, f.Total, i+1, sched.Tiles)
		}
		// The frame's pixels must match the final image's span: the pump
		// copies, so later merges cannot have scribbled on them.
		span := f.Span
		if wantPix := got.SpanBytes(span); !bytesEq(f.Pix, wantPix) {
			t.Fatalf("frame %d (tile %d): partial pixels differ from final image span", i, f.Tile)
		}
	}
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPartialPumpNilSafety exercises the nil-receiver paths directly.
func TestPartialPumpNilSafety(t *testing.T) {
	var pp *partialPump
	pp.publish(0, raster.Span{}, nil, 1, 1) // must not panic
	pp.finish()                             // must not panic
	if pp := newPartialPump(PipelineConfig{}, 4, nil, 0); pp != nil {
		t.Fatal("pump constructed without an OnPartial callback")
	}
}

// TestPartialDeadlineChargesEachSenderOnce pins the miss accounting of the
// synchronous attempt: a receive deadline charges Health.DeadlineMiss once
// per distinct sender still owing data, not once per owed message. On rt:4
// at P=4 a partner owes two tile messages per step; rank 1 is silent, so
// its step-0 partner and gather root, rank 0, hits a deadline in step 0 and
// in the gather, and its misses for rank 1 must equal those deadline hits.
func TestPartialDeadlineChargesEachSenderOnce(t *testing.T) {
	const p, w, h, silent = 4, 32, 8, 1
	sched, err := schedule.RT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers := makeLayers(rand.New(rand.NewSource(5150)), p, w, h, true)
	rec := telemetry.New()
	healths := make([]*gray.Health, p)
	o := runInprocGray(t, sched, layers, func(r int) Options {
		healths[r] = gray.NewHealth(gray.HealthConfig{}, nil, r)
		return Options{
			GatherRoot:  0,
			OnMissing:   ComposePartial,
			RecvTimeout: 150 * time.Millisecond,
			Telemetry:   rec,
			Health:      healths[r],
		}
	}, func(r int) *faulty.Plan {
		if r != silent {
			return nil
		}
		return &faulty.Plan{Drop: 1} // every send lost, the rank stays up
	})
	if o.errs[0] != nil {
		t.Fatalf("rank 0: %v", o.errs[0])
	}
	if !o.reports[0].Degraded {
		t.Fatal("rank 0 is not degraded: the silent rank's data arrived")
	}
	var hits int64
	for k, v := range rec.Counters() {
		if k.Rank == 0 && k.Name == telemetry.CtrDeadlineHits {
			hits += v
		}
	}
	var misses int64
	for _, ph := range healths[0].Snapshot() {
		if ph.Peer == silent {
			misses = ph.Misses
		}
	}
	if hits == 0 {
		t.Fatal("rank 0 hit no deadline: scenario is vacuous")
	}
	if misses != hits {
		t.Fatalf("rank 0 charged the silent rank %d misses over %d deadlines, want one per deadline", misses, hits)
	}
}
