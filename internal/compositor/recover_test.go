package compositor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// The recovery suite asserts the tentpole contract of the Recover policy:
// killing a rank mid-composition yields the byte-identical fault-free image
// on the survivors (binary-alpha layers make u8 "over" exact), with the
// result flagged Recovered — never Degraded — and the recovery accounted in
// the report. When recovery is impossible (buddy pair dead, budget spent)
// the run must fall back to one compose-partial epoch and force Degraded.

// runRecoverCase is runChaosCase generalised to kill any set of ranks:
// dieAfter maps rank -> DieAfterSends (1 = die on the second send, i.e.
// right after shipping the replica).
func runRecoverCase(t *testing.T, sched *schedule.Schedule, layers []*raster.Image,
	dieAfter map[int]int, opts Options) chaosOutcome {
	t.Helper()
	p := sched.P
	out := chaosOutcome{
		reports:   make([]*Report, p),
		errs:      make([]error, p),
		stats:     make([]faulty.Stats, p),
		deadlines: make([]int, p),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(inner comm.Comm) error {
			ep := faulty.Wrap(inner, faulty.Plan{Seed: 41, DieAfterSends: dieAfter[inner.Rank()]})
			probe := &probeComm{Comm: ep}
			img, rep, err := Run(probe, sched, layers[inner.Rank()], opts)
			r := inner.Rank()
			out.reports[r] = rep
			out.errs[r] = err
			out.stats[r] = ep.Stats()
			out.deadlines[r] = probe.deadlines
			if img != nil && r == 0 {
				out.final = img
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("recovery case HUNG: schedule did not terminate within the watchdog")
	}
	return out
}

// probeComm wraps one rank's endpoint for the recovery tests. It counts the
// receives that end at their deadline and, while cut is set, truncates by
// one byte the first received payload whose tag cut selects, after holding
// it for cutDelay.
type probeComm struct {
	comm.Comm
	deadlines int
	cut       func(tag int) bool
	cutDelay  time.Duration
}

// SendCtx keeps the wrapped fabric's trace contexts.
func (p *probeComm) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	return comm.SendCtx(p.Comm, to, tag, payload, tc)
}

func (p *probeComm) RecvTimeout(from, tag int, timeout time.Duration) ([]byte, error) {
	data, err := p.Comm.RecvTimeout(from, tag, timeout)
	if errors.Is(err, comm.ErrDeadline) {
		p.deadlines++
	}
	return data, err
}

func (p *probeComm) RecvAnyTimeout(keys []comm.MsgKey, timeout time.Duration) (int, int, []byte, error) {
	from, tag, data, err := p.Comm.RecvAnyTimeout(keys, timeout)
	if errors.Is(err, comm.ErrDeadline) {
		p.deadlines++
	}
	if err == nil && p.cut != nil && p.cut(tag) {
		p.cut = nil
		time.Sleep(p.cutDelay)
		data = data[:len(data)-1]
	}
	return from, tag, data, err
}

func recoverOptions(cdc codec.Codec) Options {
	return Options{
		Codec:       cdc,
		RecvTimeout: 250 * time.Millisecond,
		OnMissing:   Recover,
	}
}

// TestRecoverSingleDeathDifferential is the chaos differential matrix of
// the issue: one rank killed after its replica ships, for every method and
// every wire codec, must still produce the fault-free golden image exactly.
func TestRecoverSingleDeathDifferential(t *testing.T) {
	codecs := []string{"raw", "rle", "trle"}
	for name, sched := range chaosSchedules(t) {
		for ci, cname := range codecs {
			// Vary the victim across codecs; never the gather root (rank 0):
			// recovery replaces a dead producer, not the image's consumer.
			die := 1 + ci%(sched.P-1)
			t.Run(fmt.Sprintf("%s/%s/kill%d", name, cname, die), func(t *testing.T) {
				cdc, err := codec.ByName(cname)
				if err != nil {
					t.Fatal(err)
				}
				layers, want := chaosLayers(31, sched.P)
				o := runRecoverCase(t, sched, layers, map[int]int{die: 1}, recoverOptions(cdc))
				if err := o.errs[die]; err == nil || !errors.Is(err, faulty.ErrDead) {
					t.Errorf("dead rank error = %v, want ErrDead", err)
				}
				for r, err := range o.errs {
					if r != die && err != nil {
						t.Errorf("survivor rank %d failed: %v", r, err)
					}
				}
				if o.final == nil {
					t.Fatal("no final image on the root")
				}
				if !raster.Equal(o.final, want) {
					t.Fatalf("recovered image differs from fault-free golden: maxdiff=%d",
						raster.MaxDiff(o.final, want))
				}
				for r, rep := range o.reports {
					if r == die || rep == nil {
						continue
					}
					if rep.Degraded {
						t.Errorf("rank %d flagged Degraded on a recovered run", r)
					}
					if !rep.Recovered {
						t.Errorf("rank %d did not flag Recovered", r)
					}
					if rep.RecoveryEpochs < 1 {
						t.Errorf("rank %d RecoveryEpochs = %d, want >= 1", r, rep.RecoveryEpochs)
					}
					if len(rep.RecoveredRanks) != 1 || rep.RecoveredRanks[0] != die {
						t.Errorf("rank %d RecoveredRanks = %v, want [%d]", r, rep.RecoveredRanks, die)
					}
				}
			})
		}
	}
}

// TestRecoverNoFailureStaysClean: with nobody dying, the Recover policy
// must be a pass-through — exact image, no Recovered flag, zero epochs — and
// no receive may wait out a deadline: a fault-free frame commits as soon as
// the agreement completes.
func TestRecoverNoFailureStaysClean(t *testing.T) {
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(32, sched.P)
			opts := recoverOptions(codec.TRLE{})
			rec := telemetry.New()
			opts.Telemetry = rec
			o := runRecoverCase(t, sched, layers, nil, opts)
			for r, n := range o.deadlines {
				if n != 0 {
					t.Errorf("rank %d: %d receives ended at their deadline on a fault-free run", r, n)
				}
			}
			for k, v := range rec.Counters() {
				if k.Name == telemetry.CtrDeadlineHits && v != 0 {
					t.Errorf("rank %d: %s = %d on a fault-free run", k.Rank, k.Name, v)
				}
			}
			for r, err := range o.errs {
				if err != nil {
					t.Errorf("rank %d failed: %v", r, err)
				}
			}
			if o.final == nil || !raster.Equal(o.final, want) {
				t.Fatal("fault-free recover run did not reproduce the reference image")
			}
			for r, rep := range o.reports {
				if rep == nil {
					continue
				}
				if rep.Degraded || rep.Recovered || rep.RecoveryEpochs != 0 || len(rep.RecoveredRanks) != 0 {
					t.Errorf("rank %d report claims recovery on a clean run: %+v", r, rep)
				}
			}
		})
	}
}

// TestRecoverBuddyPairDeathFallsBack: ranks 2 and 3 are each other's
// buddies; losing both destroys the only replicas of their layers, so the
// run must fall back to compose-partial with the dead layers blanked and
// the Degraded flag forced.
func TestRecoverBuddyPairDeathFallsBack(t *testing.T) {
	sched, err := schedule.NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := chaosLayers(33, sched.P)
	o := runRecoverCase(t, sched, layers, map[int]int{2: 1, 3: 1}, recoverOptions(codec.Raw{}))
	for _, r := range []int{2, 3} {
		if err := o.errs[r]; err == nil || !errors.Is(err, faulty.ErrDead) {
			t.Errorf("dead rank %d error = %v, want ErrDead", r, err)
		}
	}
	for _, r := range []int{0, 1} {
		if err := o.errs[r]; err != nil {
			t.Errorf("survivor rank %d failed: %v", r, err)
		}
		rep := o.reports[r]
		if rep == nil {
			t.Fatalf("survivor rank %d has no report", r)
		}
		if !rep.Degraded {
			t.Errorf("rank %d not flagged Degraded after an unrecoverable pair death", r)
		}
		if rep.Recovered {
			t.Errorf("rank %d flagged Recovered despite the lost replicas", r)
		}
	}
	if o.final == nil {
		t.Fatal("fallback produced no image on the root")
	}
	blank := raster.New(32, 32)
	want := compose.SerialComposite([]*raster.Image{layers[0], layers[1], blank, blank})
	if !raster.Equal(o.final, want) {
		t.Fatalf("fallback image is not the survivors' composite: maxdiff=%d", raster.MaxDiff(o.final, want))
	}
}

// TestRecoverBudgetExhaustedFallsBack: a negative MaxRecoveries forbids
// re-execution, so even a perfectly recoverable single death must go
// straight to the compose-partial fallback — which still uses the replica,
// but the uncertified result is forcibly Degraded, never Recovered.
func TestRecoverBudgetExhaustedFallsBack(t *testing.T) {
	sched, err := schedule.BinarySwap(4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(34, sched.P)
	opts := recoverOptions(codec.TRLE{})
	opts.MaxRecoveries = -1
	o := runRecoverCase(t, sched, layers, map[int]int{2: 1}, opts)
	for _, r := range []int{0, 1, 3} {
		if err := o.errs[r]; err != nil {
			t.Errorf("survivor rank %d failed: %v", r, err)
		}
		rep := o.reports[r]
		if rep == nil {
			t.Fatalf("survivor rank %d has no report", r)
		}
		if !rep.Degraded {
			t.Errorf("rank %d not flagged Degraded with a zero recovery budget", r)
		}
		if rep.Recovered {
			t.Errorf("rank %d flagged Recovered without certification", r)
		}
	}
	if o.final == nil {
		t.Fatal("fallback produced no image on the root")
	}
	// The replica still contributed rank 2's layer, so the pixels are in
	// fact complete — only the certification is missing.
	if !raster.Equal(o.final, want) {
		t.Fatalf("fallback-with-replica image differs: maxdiff=%d", raster.MaxDiff(o.final, want))
	}
}

// TestRecoverRequiresDeadline: the policy is deadline-driven; without a
// RecvTimeout it must refuse to run rather than hang on the first death.
func TestRecoverRequiresDeadline(t *testing.T) {
	sched, err := schedule.BinarySwap(4)
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := chaosLayers(35, sched.P)
	o := runRecoverCase(t, sched, layers, nil, Options{OnMissing: Recover})
	for r, err := range o.errs {
		if err == nil {
			t.Errorf("rank %d accepted Recover without a RecvTimeout", r)
		}
	}
}

// TestRecoverBroadcastDeliversToAllSurvivors: with Broadcast on, every
// survivor must end up with the identical certified image after a death.
func TestRecoverBroadcastDeliversToAllSurvivors(t *testing.T) {
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(36, sched.P)
	opts := recoverOptions(codec.RLE{})
	opts.Broadcast = true
	die := 1
	p := sched.P
	finals := make([]*raster.Image, p)
	errs := make([]error, p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(inner comm.Comm) error {
			da := 0
			if inner.Rank() == die {
				da = 1
			}
			ep := faulty.Wrap(inner, faulty.Plan{Seed: 43, DieAfterSends: da})
			img, _, err := Run(ep, sched, layers[inner.Rank()], opts)
			finals[inner.Rank()] = img
			errs[inner.Rank()] = err
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("broadcast recovery case HUNG")
	}
	for r := 0; r < p; r++ {
		if r == die {
			continue
		}
		if errs[r] != nil {
			t.Errorf("survivor rank %d failed: %v", r, errs[r])
			continue
		}
		if finals[r] == nil || !raster.Equal(finals[r], want) {
			t.Errorf("survivor rank %d did not receive the certified image", r)
		}
	}
}

// TestRecoverLateAbortBlocksCommit: one rank aborts its attempt after the
// other ranks have completed theirs — its final-step payload arrives
// truncated, so it fails with codec.ErrCorrupt and aborts naming no suspect.
// The completed ranks are no longer listening for its FAILED notice, and
// the agreement declares nobody dead; only the abort flag the aborter
// carries into the agreement keeps them from committing epoch 0. Every rank
// must re-execute once and deliver the exact image.
func TestRecoverLateAbortBlocksCommit(t *testing.T) {
	for _, cname := range []string{"raw", "rle", "trle"} {
		for name, sched := range chaosSchedules(t) {
			t.Run(cname+"/"+name, func(t *testing.T) {
				cdc, err := codec.ByName(cname)
				if err != nil {
					t.Fatal(err)
				}
				layers, want := chaosLayers(37, sched.P)
				last := len(sched.Steps) - 1
				tr := sched.Steps[last].Transfers[0]
				finalTag := tagFor(0, last, tr.Block)
				opts := recoverOptions(cdc)
				opts.RecvTimeout = 2 * time.Second
				opts.Broadcast = true
				p := sched.P
				finals := make([]*raster.Image, p)
				reps := make([]*Report, p)
				errs := make([]error, p)
				done := make(chan struct{})
				go func() {
					defer close(done)
					inproc.Run(p, func(c comm.Comm) error {
						probe := &probeComm{Comm: c}
						if c.Rank() == tr.To {
							probe.cut = func(tag int) bool { return tag == finalTag }
							probe.cutDelay = 50 * time.Millisecond
						}
						finals[c.Rank()], reps[c.Rank()], errs[c.Rank()] = Run(probe, sched, layers[c.Rank()], opts)
						return nil
					})
				}()
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatal("late-abort case HUNG")
				}
				for r := 0; r < p; r++ {
					if errs[r] != nil {
						t.Errorf("rank %d failed: %v", r, errs[r])
						continue
					}
					if finals[r] == nil || !raster.Equal(finals[r], want) {
						t.Errorf("rank %d image differs from the serial composite", r)
					}
					if rep := reps[r]; rep.RecoveryEpochs != 1 || rep.Degraded || rep.Recovered {
						t.Errorf("rank %d report %+v, want one re-executed epoch and a clean result", r, rep)
					}
				}
			})
		}
	}
}
