package compositor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
)

// The chaos suite runs every composition schedule for real on the
// in-process fabric wrapped in the fault-injection middleware and asserts
// the robustness contract: under any fault mix, every rank either completes
// with a correct image (possibly after retransmission), composes a result
// explicitly flagged as degraded, or returns a typed recoverable error
// within its deadline. Never a hang, never a silently wrong image.

// chaosSchedules is the set of schedules the robustness contract is
// asserted over: the paper's four methods at a small processor count.
func chaosSchedules(t *testing.T) map[string]*schedule.Schedule {
	t.Helper()
	out := map[string]*schedule.Schedule{}
	var err error
	if out["rt-n"], err = schedule.NRT(4, 4); err != nil {
		t.Fatal(err)
	}
	if out["rt-2n"], err = schedule.TwoNRT(4, 4); err != nil {
		t.Fatal(err)
	}
	if out["binary-swap"], err = schedule.BinarySwap(4); err != nil {
		t.Fatal(err)
	}
	if out["pipeline"], err = schedule.Pipeline(4); err != nil {
		t.Fatal(err)
	}
	return out
}

type chaosOutcome struct {
	final     *raster.Image
	reports   []*Report
	errs      []error
	stats     []faulty.Stats
	deadlines []int // receives that ended at their deadline, per rank (runRecoverCase only)
}

// anyDegraded reports whether any rank flagged its result as degraded.
func (o chaosOutcome) anyDegraded() bool {
	for _, rep := range o.reports {
		if rep != nil && rep.Degraded {
			return true
		}
	}
	return false
}

// runChaosCase executes the schedule with every rank wrapped in the fault
// plan (dieRank, if >= 0, additionally gets plan.DieAfterSends applied) and
// enforces the no-hang guarantee with a hard watchdog.
func runChaosCase(t *testing.T, sched *schedule.Schedule, layers []*raster.Image,
	plan faulty.Plan, dieRank int, opts Options) chaosOutcome {
	t.Helper()
	p := sched.P
	out := chaosOutcome{
		reports: make([]*Report, p),
		errs:    make([]error, p),
		stats:   make([]faulty.Stats, p),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		inproc.Run(p, func(inner comm.Comm) error {
			rankPlan := plan
			if inner.Rank() != dieRank {
				rankPlan.DieAfterSends = 0
			}
			ep := faulty.Wrap(inner, rankPlan)
			img, rep, err := Run(ep, sched, layers[inner.Rank()], opts)
			r := inner.Rank()
			out.reports[r] = rep
			out.errs[r] = err
			out.stats[r] = ep.Stats()
			if img != nil {
				out.final = img
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("chaos case HUNG: schedule did not terminate within the watchdog")
	}
	return out
}

// assertContract checks the invariant every chaos case must satisfy: all
// errors are typed recoverable (or injected death), and a complete,
// unflagged image is byte-identical to the fault-free reference.
func assertContract(t *testing.T, o chaosOutcome, want *raster.Image) {
	t.Helper()
	failed := false
	for r, err := range o.errs {
		if err == nil {
			continue
		}
		failed = true
		if !comm.IsRecoverable(err) && !errors.Is(err, faulty.ErrDead) {
			t.Errorf("rank %d returned an untyped error: %v", r, err)
		}
	}
	if o.final != nil && !failed && !o.anyDegraded() {
		if !raster.Equal(o.final, want) {
			t.Errorf("silent wrong image: no error, no degraded flag, but maxdiff=%d",
				raster.MaxDiff(o.final, want))
		}
	}
}

func chaosLayers(seed int64, p int) ([]*raster.Image, *raster.Image) {
	rng := rand.New(rand.NewSource(seed))
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.RandomBinaryImage(rng, 32, 32, 0.5)
	}
	return layers, compose.SerialComposite(layers)
}

func TestChaosDropWithRetrySurvives(t *testing.T) {
	// A 30% per-attempt drop rate with 10 retransmission attempts loses a
	// message with probability 0.3^11 — the bounded retry loop must carry
	// every schedule to an exact result.
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(1, sched.P)
			plan := faulty.Plan{Seed: 7, Drop: 0.3, MaxResend: 10, Backoff: 100 * time.Microsecond}
			o := runChaosCase(t, sched, layers, plan, -1,
				Options{Codec: codec.TRLE{}, RecvTimeout: 10 * time.Second})
			assertContract(t, o, want)
			for r, err := range o.errs {
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
			if o.final == nil {
				t.Fatal("no final image")
			}
			if !raster.Equal(o.final, want) {
				t.Fatalf("image differs after retry: maxdiff=%d", raster.MaxDiff(o.final, want))
			}
			var dropped int
			for _, s := range o.stats {
				dropped += s.Dropped
				if s.Lost > 0 {
					t.Fatalf("seed lost a message outright; pick a different seed")
				}
			}
			if dropped == 0 {
				t.Fatal("fault injection inactive: no drops at drop=0.3")
			}
		})
	}
}

func TestChaosLossFailFast(t *testing.T) {
	// With no retransmission and heavy loss, fail-fast ranks must surface a
	// typed deadline error — not hang, not return a wrong image.
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(2, sched.P)
			plan := faulty.Plan{Seed: 3, Drop: 0.5}
			o := runChaosCase(t, sched, layers, plan, -1,
				Options{Codec: codec.TRLE{}, RecvTimeout: 150 * time.Millisecond, OnMissing: FailFast})
			assertContract(t, o, want)
			var lost, failed int
			for _, s := range o.stats {
				lost += s.Lost
			}
			if lost == 0 {
				t.Skip("seed dropped nothing terminally; loss case not exercised")
			}
			for _, err := range o.errs {
				if err != nil {
					failed++
					if !comm.IsRecoverable(err) {
						t.Errorf("untyped failure: %v", err)
					}
				}
			}
			if failed == 0 {
				t.Fatal("messages were lost but no rank failed under FailFast")
			}
		})
	}
}

func TestChaosLossComposePartial(t *testing.T) {
	// The same loss under compose-partial must produce a flagged, degraded
	// image on the surviving path instead of an error cascade.
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(4, sched.P)
			plan := faulty.Plan{Seed: 3, Drop: 0.5}
			o := runChaosCase(t, sched, layers, plan, -1,
				Options{Codec: codec.TRLE{}, RecvTimeout: 150 * time.Millisecond, OnMissing: ComposePartial})
			assertContract(t, o, want)
			var lost int
			for _, s := range o.stats {
				lost += s.Lost
			}
			if lost == 0 {
				t.Skip("seed dropped nothing terminally; loss case not exercised")
			}
			if !o.anyDegraded() {
				t.Fatal("messages were lost but no rank flagged degradation")
			}
			rep0 := o.reports[0]
			if rep0 != nil && rep0.Degraded && rep0.MissingTransfers == 0 && rep0.MissingGathers == 0 && rep0.MissingLayerPix == 0 {
				t.Fatal("rank 0 degraded without accounting for anything missing")
			}
		})
	}
}

func TestChaosDelayJitterIsHarmless(t *testing.T) {
	// Delivery jitter below the receive deadline must not change the result:
	// the tag-matching fabric absorbs reordering.
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(5, sched.P)
			plan := faulty.Plan{Seed: 11, DelayProb: 0.6, MaxDelay: 5 * time.Millisecond}
			o := runChaosCase(t, sched, layers, plan, -1,
				Options{Codec: codec.TRLE{}, RecvTimeout: 10 * time.Second})
			assertContract(t, o, want)
			if o.final == nil || !raster.Equal(o.final, want) {
				t.Fatal("jittered run did not reproduce the reference image")
			}
			var delayed int
			for _, s := range o.stats {
				delayed += s.Delayed
			}
			if delayed == 0 {
				t.Fatal("fault injection inactive: no delays at delayProb=0.6")
			}
		})
	}
}

func TestChaosDuplicatesAreHarmless(t *testing.T) {
	// Duplicate deliveries must be ignored by the (from, tag) matching: each
	// transfer is consumed once and the extra copy dies unread.
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(6, sched.P)
			plan := faulty.Plan{Seed: 13, DupProb: 0.7}
			o := runChaosCase(t, sched, layers, plan, -1,
				Options{Codec: codec.TRLE{}, RecvTimeout: 10 * time.Second})
			assertContract(t, o, want)
			if o.final == nil || !raster.Equal(o.final, want) {
				t.Fatal("duplicated run did not reproduce the reference image")
			}
			var dups int
			for _, s := range o.stats {
				dups += s.Duplicated
			}
			if dups == 0 {
				t.Fatal("fault injection inactive: no duplicates at dupProb=0.7")
			}
		})
	}
}

func TestChaosCorruptionIsDetectedNeverSilent(t *testing.T) {
	// Corrupted payloads must be caught by the frame checksum and turned
	// into loss (deadline/degradation) — never decoded into the image.
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(7, sched.P)
			plan := faulty.Plan{Seed: 17, CorruptProb: 0.4}
			o := runChaosCase(t, sched, layers, plan, -1,
				Options{Codec: codec.TRLE{}, RecvTimeout: 150 * time.Millisecond, OnMissing: ComposePartial})
			assertContract(t, o, want)
			var corrupted, rejected int
			for _, s := range o.stats {
				corrupted += s.Corrupted
				rejected += s.RejectedCRC
			}
			if corrupted == 0 {
				t.Fatal("fault injection inactive: no corruption at corruptProb=0.4")
			}
			if rejected == 0 && o.anyDegraded() {
				t.Error("degraded without any CRC rejection recorded")
			}
			// The contract already rules out a silent wrong image; also
			// check the positive direction when everything was caught early.
			if o.final != nil && !o.anyDegraded() {
				allNil := true
				for _, err := range o.errs {
					if err != nil {
						allNil = false
					}
				}
				if allNil && !raster.Equal(o.final, want) {
					t.Fatal("corrupt data reached the composite undetected")
				}
			}
		})
	}
}

func TestChaosPeerDeath(t *testing.T) {
	// Killing the last rank mid-schedule: under fail-fast the survivors
	// time out with typed errors; under compose-partial rank 0 still
	// produces a flagged image.
	for name, sched := range chaosSchedules(t) {
		for _, policy := range []Policy{FailFast, ComposePartial} {
			t.Run(fmt.Sprintf("%s/%v", name, policy), func(t *testing.T) {
				layers, want := chaosLayers(8, sched.P)
				plan := faulty.Plan{Seed: 19, DieAfterSends: 1}
				o := runChaosCase(t, sched, layers, plan, sched.P-1,
					Options{Codec: codec.TRLE{}, RecvTimeout: 150 * time.Millisecond, OnMissing: policy})
				assertContract(t, o, want)
				if err := o.errs[sched.P-1]; err == nil || !errors.Is(err, faulty.ErrDead) {
					t.Errorf("dead rank error = %v, want ErrDead", err)
				}
				if policy == ComposePartial {
					if o.final == nil {
						t.Fatal("compose-partial produced no image despite a surviving root")
					}
					if !o.anyDegraded() && !raster.Equal(o.final, want) {
						t.Fatal("missing contribution neither flagged nor absent")
					}
				} else {
					// Fail-fast: whoever depended on the dead rank must fail
					// typed, and no degraded image may be produced.
					if o.anyDegraded() {
						t.Fatal("FailFast must not flag degradation")
					}
				}
			})
		}
	}
}

func TestChaosKitchenSink(t *testing.T) {
	// Everything at once, compose-partial: the run must terminate with the
	// contract intact whatever the mix does.
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(9, sched.P)
			plan := faulty.Plan{
				Seed: 23, Drop: 0.2, MaxResend: 2, Backoff: 100 * time.Microsecond,
				DelayProb: 0.3, MaxDelay: 2 * time.Millisecond,
				DupProb: 0.2, CorruptProb: 0.1,
			}
			o := runChaosCase(t, sched, layers, plan, -1,
				Options{Codec: codec.TRLE{}, RecvTimeout: 250 * time.Millisecond, OnMissing: ComposePartial})
			assertContract(t, o, want)
		})
	}
}

// chaosPipelined flips a chaos option set onto the pipelined executor with
// a deterministic interleaving, so every pipelined chaos case also exercises
// a reordered delivery schedule.
func chaosPipelined(o Options) Options {
	o.Pipeline.Enabled = true
	o.Pipeline.InterleaveSeed = 99
	return o
}

// dropEverythingPlan silently discards every send: the total-loss scenario
// of the stall-detector and compose-partial tests.
func dropEverythingPlan() faulty.Plan { return faulty.Plan{Seed: 2, Drop: 1} }

// minRecvTimeout is the short failure-detection deadline of the loss cases.
func minRecvTimeout() time.Duration { return 200 * time.Millisecond }

// TestChaosPipelinedMatrix re-runs the chaos contract on the pipelined
// executor: for every schedule, the same fault plans that the synchronous
// matrix survives must yield the same outcomes — exact after retries,
// typed failure under fail-fast loss, flagged degradation under
// compose-partial, and the peer-death contract under both policies.
func TestChaosPipelinedMatrix(t *testing.T) {
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("drop-with-retry-exact", func(t *testing.T) {
				layers, want := chaosLayers(61, sched.P)
				plan := faulty.Plan{Seed: 7, Drop: 0.3, MaxResend: 10, Backoff: 100 * time.Microsecond}
				o := runChaosCase(t, sched, layers, plan, -1,
					chaosPipelined(Options{Codec: codec.TRLE{}, RecvTimeout: 10 * time.Second}))
				assertContract(t, o, want)
				for r, err := range o.errs {
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
				}
				if o.final == nil || !raster.Equal(o.final, want) {
					t.Fatal("pipelined retry run did not reproduce the reference image")
				}
			})
			t.Run("loss-failfast-typed", func(t *testing.T) {
				layers, want := chaosLayers(62, sched.P)
				plan := faulty.Plan{Seed: 3, Drop: 0.5}
				o := runChaosCase(t, sched, layers, plan, -1,
					chaosPipelined(Options{Codec: codec.TRLE{}, RecvTimeout: minRecvTimeout(), OnMissing: FailFast}))
				assertContract(t, o, want)
				var lost, failed int
				for _, s := range o.stats {
					lost += s.Lost
				}
				if lost == 0 {
					t.Skip("seed dropped nothing terminally; loss case not exercised")
				}
				for _, err := range o.errs {
					if err != nil {
						failed++
					}
				}
				if failed == 0 {
					t.Fatal("messages were lost but no pipelined rank failed under FailFast")
				}
			})
			t.Run("loss-composepartial-flagged", func(t *testing.T) {
				layers, want := chaosLayers(63, sched.P)
				plan := faulty.Plan{Seed: 3, Drop: 0.5}
				o := runChaosCase(t, sched, layers, plan, -1,
					chaosPipelined(Options{Codec: codec.TRLE{}, RecvTimeout: minRecvTimeout(), OnMissing: ComposePartial}))
				assertContract(t, o, want)
				var lost int
				for _, s := range o.stats {
					lost += s.Lost
				}
				if lost == 0 {
					t.Skip("seed dropped nothing terminally; loss case not exercised")
				}
				if !o.anyDegraded() {
					t.Fatal("messages were lost but no pipelined rank flagged degradation")
				}
			})
			for _, policy := range []Policy{FailFast, ComposePartial} {
				t.Run(fmt.Sprintf("peer-death/%v", policy), func(t *testing.T) {
					layers, want := chaosLayers(64, sched.P)
					plan := faulty.Plan{Seed: 19, DieAfterSends: 1}
					o := runChaosCase(t, sched, layers, plan, sched.P-1,
						chaosPipelined(Options{Codec: codec.TRLE{}, RecvTimeout: minRecvTimeout(), OnMissing: policy}))
					assertContract(t, o, want)
					if err := o.errs[sched.P-1]; err == nil || !errors.Is(err, faulty.ErrDead) {
						t.Errorf("dead rank error = %v, want ErrDead", err)
					}
					if policy == ComposePartial {
						if o.final == nil {
							t.Fatal("compose-partial produced no image despite a surviving root")
						}
						if !o.anyDegraded() && !raster.Equal(o.final, want) {
							t.Fatal("missing contribution neither flagged nor absent")
						}
					} else if o.anyDegraded() {
						t.Fatal("FailFast must not flag degradation")
					}
				})
			}
		})
	}
}

// TestChaosPipelinedConnReset: delivery jitter plus duplicates — the
// transient-fault mix the reliable session layer masks — must leave the
// pipelined result byte-exact, like the synchronous jitter case.
func TestChaosPipelinedConnReset(t *testing.T) {
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(65, sched.P)
			plan := faulty.Plan{Seed: 11, DelayProb: 0.6, MaxDelay: 5 * time.Millisecond, DupProb: 0.3}
			o := runChaosCase(t, sched, layers, plan, -1,
				chaosPipelined(Options{Codec: codec.TRLE{}, RecvTimeout: 10 * time.Second}))
			assertContract(t, o, want)
			if o.final == nil || !raster.Equal(o.final, want) {
				t.Fatal("jittered pipelined run did not reproduce the reference image")
			}
		})
	}
}

// TestChaosPipelinedRecoverSingleDeath: the Recover policy with the
// pipelined epoch-0 attempt must match the synchronous recovery contract —
// a recoverable single death still yields the exact fault-free image,
// flagged Recovered.
func TestChaosPipelinedRecoverSingleDeath(t *testing.T) {
	for name, sched := range chaosSchedules(t) {
		t.Run(name, func(t *testing.T) {
			layers, want := chaosLayers(66, sched.P)
			die := 1
			opts := recoverOptions(codec.TRLE{})
			opts.Pipeline.Enabled = true
			opts.Pipeline.InterleaveSeed = 31
			o := runRecoverCase(t, sched, layers, map[int]int{die: 1}, opts)
			if err := o.errs[die]; err == nil || !errors.Is(err, faulty.ErrDead) {
				t.Errorf("dead rank error = %v, want ErrDead", err)
			}
			for r, err := range o.errs {
				if r != die && err != nil {
					t.Errorf("survivor rank %d failed: %v", r, err)
				}
			}
			if o.final == nil || !raster.Equal(o.final, want) {
				t.Fatal("pipelined recovery did not reproduce the fault-free golden image")
			}
			for r, rep := range o.reports {
				if r == die || rep == nil {
					continue
				}
				if !rep.Recovered || rep.Degraded {
					t.Errorf("rank %d: Recovered=%v Degraded=%v", r, rep.Recovered, rep.Degraded)
				}
			}
		})
	}
}

func TestChaosDeterministicFaultStreams(t *testing.T) {
	// The same seed must inject the identical fault pattern run after run —
	// the property that makes chaos failures reproducible.
	sched, err := schedule.TwoNRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers, want := chaosLayers(10, sched.P)
	plan := faulty.Plan{Seed: 29, Drop: 0.25, MaxResend: 4, Backoff: 100 * time.Microsecond, DupProb: 0.2}
	var first []faulty.Stats
	for trial := 0; trial < 3; trial++ {
		o := runChaosCase(t, sched, layers, plan, -1,
			Options{Codec: codec.TRLE{}, RecvTimeout: 10 * time.Second})
		assertContract(t, o, want)
		if trial == 0 {
			first = o.stats
			continue
		}
		for r := range o.stats {
			if o.stats[r] != first[r] {
				t.Fatalf("trial %d rank %d stats %+v != first run %+v", trial, r, o.stats[r], first[r])
			}
		}
	}
}
