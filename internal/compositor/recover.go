// The recovery engine of the Recover policy: buddy replication of the
// initial sub-images, silence-based failure agreement, schedule repair over
// the survivors and bounded re-execution — so a composition that loses a
// rank mid-frame still delivers the complete, pixel-exact image instead of
// a degraded one.
//
// The protocol runs in epochs. Epoch 0 ships every rank's encoded initial
// sub-image to a deterministic buddy (schedule.Buddy) and then executes the
// original schedule. Any failure signal — a missed receive deadline, a
// peer error, a FAILED notice from another rank — aborts the attempt: the
// aborting rank broadcasts a best-effort notice and falls through to the
// membership agreement (comm.Agree), which every live rank runs after every
// attempt, completed or aborted, carrying its abort flag, and which doubles
// as the commit barrier. When the agreement declares new ranks dead, the
// survivors advance the epoch in lockstep, repair the schedule
// (schedule.Repair) so each dead rank's layer is contributed by its buddy
// from the replica, and re-execute under epoch-scoped tags (stale traffic
// from the aborted attempt dies unread under its old tags). When it
// declares nobody new dead and no rank's flag is set, the epoch commits.
// When the recovery budget is exhausted, or a dead rank's replica died with
// its buddy, one final compose-partial epoch salvages what it can and the
// result is forcibly flagged Degraded — it was never certified complete.
//
// Every synchronous attempt — each epoch and the fallback — runs through
// runAttempt, the same step loop and gather as the fail and partial
// policies: one attempt, three reactions. Under Recover the reaction at a
// fault site is graceOrEscalate (at a deadline), then abort. The pipelined
// epoch-0 attempt reacts the same way through pipeRun.fault and onLost.
package compositor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/statexfer"
	"rtcomp/internal/telemetry"
)

// DefaultMaxRecoveries is the re-execution budget when Options.MaxRecoveries
// is zero: enough for one genuine failure plus one false alarm.
const DefaultMaxRecoveries = 2

// agreeRecvTimeouts is the membership agreement's timeout in receive
// deadlines (RecvTimeout): enough for a peer that was still blocked on the
// dead rank to reach the agreement late.
const agreeRecvTimeouts = 3

// Reserved epoch-0 tags of the recovery protocol, below 2^40 like
// tagGatherFinal (step tags always carry step+1 >= 1 in bits 40+).
const (
	tagReplica   = (1 << 39) + 0x5250 // buddy replica exchange ("RP")
	tagCommitImg = (1 << 39) + 0x434D // certified-image broadcast ("CM")
)

func commitTag(epoch int) int { return epoch<<56 | tagCommitImg }

// rexec is the per-rank state of one recovering composition.
type rexec struct {
	c     comm.Comm
	sched *schedule.Schedule
	local *raster.Image
	opts  Options
	cdc   codec.Codec
	rep   *Report
	tel   *telemetry.Recorder
	me    int
	mem   *comm.Membership
	scr   *runScratch // reused across epochs; an abort does not invalidate it

	// replicas holds the ward sub-images this rank received in the initial
	// buddy exchange — the recovery source, and (when hedging is enabled)
	// the material the pipelined attempt serves hedge requests from.
	replicas map[int]*raster.Image

	// noticeSent guards the one FAILED notice this rank may broadcast per
	// epoch (the notice tag is unique per epoch).
	noticeSent bool

	// maxRec and agreeTO are the resolved recovery budget and agreement
	// timeout (see newRexec); loop() shares them with the spare path.
	maxRec  int
	agreeTO time.Duration

	// scrub fingerprints the held replicas so the scrub exchange (and a
	// rejoin's ward verification) can detect silent corruption. Nil unless
	// Options.ScrubReplicas is set.
	scrub *statexfer.Scrubber
}

// abort broadcasts this epoch's FAILED notice (once) naming the suspected
// ranks, and returns true so callers can write `aborted = rx.abort(...)`.
func (rx *rexec) abort(suspects []int) bool {
	if !rx.noticeSent {
		rx.noticeSent = true
		comm.BroadcastFailure(rx.c, rx.mem, suspects)
		rx.tel.Add(rx.me, telemetry.CtrFailNotices, 1)
	}
	return true
}

// graceOrEscalate is the Recover policy's brownout-vs-death decision at a
// receive deadline, once waitPastDeadline has charged the misses: it reports
// whether the attempt should keep waiting (grace). Without health scoring
// the answer is always to abort — the silence-only semantics. With it, only
// a suspect whose misbehavior is sustained past the escalation bar hands
// the attempt to failure agreement; a slow-but-delivering peer's score
// decays on every arrival and never gets there.
func graceOrEscalate(opts Options, me int, suspects []int) bool {
	if opts.Health == nil || len(suspects) == 0 {
		return false
	}
	for _, s := range suspects {
		if opts.Health.ShouldEscalate(s) {
			opts.Telemetry.Add(me, telemetry.CtrHealthEscalations, 1)
			return false
		}
	}
	opts.Telemetry.Add(me, telemetry.CtrDeadlineGrace, 1)
	opts.Telemetry.Flight(me, telemetry.FlightGray, telemetry.StepNone, -1, -1,
		fmt.Sprintf("deadline grace for ranks %v", suspects))
	return true
}

// suspectsOf attributes a recoverable error to a rank: the named peer when
// the error carries one, otherwise the given counterpart of the failed
// operation.
func suspectsOf(err error, fallback int) []int {
	var perr *comm.PeerError
	if errors.As(err, &perr) {
		return []int{perr.Rank}
	}
	return []int{fallback}
}

// runRecover executes the composition under the Recover policy.
func runRecover(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options, cdc codec.Codec) (*raster.Image, *Report, error) {
	if opts.RecvTimeout <= 0 {
		return nil, nil, fmt.Errorf("compositor: the recover policy requires a positive RecvTimeout (failure detection is deadline-based)")
	}
	rx := newRexec(c, sched, local, opts, cdc, &Report{Rank: c.Rank()}, comm.NewMembership(sched.P))
	defer rx.scr.release()
	defer func() { releaseImages(rx.replicas) }()
	if opts.Pipeline.Enabled {
		// Recover trades render overlap for a certifiable replica. Later
		// WaitTile calls from the pipelined attempt return immediately.
		if err := waitRendered(opts.Pipeline.Source, sched.TileSpans(local.NPixels())); err != nil {
			return nil, nil, err
		}
	}
	replicas, aborted, err := rx.exchangeReplicas()
	if err != nil {
		return nil, nil, err
	}
	rx.replicas = replicas
	if opts.ScrubReplicas {
		// The scrub exchange runs even on an aborted epoch 0: every rank
		// participates in lockstep (the exchange kept collecting replicas
		// until its deadline), so the protocol stays matched; a rank that
		// died mid-exchange just surfaces as one more deadline-driven abort.
		scrubAborted, err := rx.scrubReplicas()
		if err != nil {
			return nil, nil, err
		}
		aborted = aborted || scrubAborted
	}
	return rx.loop(aborted)
}

// newRexec returns one rank's epoch engine starting from membership mem,
// with opts' recovery budget and agreement timeout resolved.
func newRexec(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options,
	cdc codec.Codec, rep *Report, mem *comm.Membership) *rexec {
	rx := &rexec{c: c, sched: sched, local: local, opts: opts, cdc: cdc, rep: rep, tel: opts.Telemetry,
		me: c.Rank(), mem: mem, scr: newRunScratch(), maxRec: opts.MaxRecoveries,
		agreeTO: agreeRecvTimeouts * opts.RecvTimeout}
	if rx.maxRec == 0 {
		rx.maxRec = DefaultMaxRecoveries
	} else if rx.maxRec < 0 {
		rx.maxRec = 0
	}
	return rx
}

// loop is the epoch engine shared by the survivors (runRecover) and a
// rejoined spare (RunSpare): attempt, agreement, commit-or-advance, bounded
// rejoin of spares after every membership change, and the compose-partial
// fallback once the budget is spent or the dead set is unrecoverable.
func (rx *rexec) loop(aborted bool) (*raster.Image, *Report, error) {
	c, sched, opts := rx.c, rx.sched, rx.opts
	recoveries := 0
	var final *raster.Image
	var err error
	for {
		if !aborted {
			var plan *schedule.Schedule
			var owners []int
			// Restore reverts to the original schedule (and owner map) when
			// every failed rank has rejoined — the healed mesh composites at
			// full pre-failure capacity.
			if plan, owners, err = schedule.Restore(sched, rx.mem.Dead()); err != nil {
				return nil, nil, err
			}
			var endRecover func()
			if rx.mem.Epoch() > 0 {
				endRecover = rx.tel.Span(rx.me, telemetry.PhaseRecover, telemetry.CatCompute, telemetry.StepNone)
			}
			if rx.mem.Epoch() == 0 && opts.Pipeline.Enabled {
				// Only the first attempt is pipelined. runPipelined joins
				// every worker and drains the in-flight window before
				// returning, so an aborted attempt reaches the agreement
				// below fully quiesced; re-executions over repaired
				// schedules run synchronously.
				final, aborted, err = runPipelined(c, plan, rx.local, opts, rx.cdc, rx.rep, rx)
			} else {
				final, aborted, err = runAttempt(c, plan, rx.local, opts, rx.cdc, rx.rep, rx.scr, rx, owners)
			}
			if endRecover != nil {
				endRecover()
			}
			if err != nil {
				return nil, nil, err
			}
		}

		endAgree := rx.tel.Span(rx.me, telemetry.PhaseAgree, telemetry.CatNetwork, telemetry.StepNone)
		newDead, anyAborted, err := comm.Agree(c, rx.mem, aborted, rx.agreeTO)
		endAgree()
		if err != nil {
			// Includes comm.ErrEvicted: the survivors condemned this rank
			// under too-tight deadlines; it must stop participating.
			return nil, nil, fmt.Errorf("compositor: epoch %d agreement: %w", rx.mem.Epoch(), err)
		}
		if !aborted && len(newDead) == 0 && !anyAborted {
			// Commit: the attempt completed everywhere and nobody died.
			rx.rep.Recovered = rx.mem.NumDead() > 0
			rx.rep.RecoveryEpochs = recoveries
			rx.rep.RecoveredRanks = rx.mem.Dead()
			rx.tel.Add(rx.me, telemetry.CtrRecoveryEpochs, int64(recoveries))
			rx.tel.Add(rx.me, telemetry.CtrRecoveredRanks, int64(len(rx.rep.RecoveredRanks)))
			final, err = rx.commitBroadcast(final)
			if err != nil {
				return nil, nil, err
			}
			finalizeReport(c, rx.rep, rx.tel)
			return final, rx.rep, nil
		}

		// Retry path: enter the next epoch in lockstep with the survivors.
		rx.mem.Advance(newDead)
		rx.tel.Flight(rx.me, telemetry.FlightEpoch, telemetry.StepNone, -1, -1, "epoch advanced")
		rx.noticeSent = false
		aborted = false
		if opts.RejoinTimeout > 0 && rx.mem.NumDead() > 0 {
			// Before deciding whether to degrade, give any registered spare a
			// bounded window to take over a dead slot. A successful rejoin
			// resets the recovery budget: the healed mesh is not still
			// charged for the failure it already repaired.
			rejoined, err := rx.attemptRejoin()
			if err != nil {
				return nil, nil, err
			}
			if rejoined > 0 {
				recoveries = 0
			}
		}
		_, recoverable := schedule.RepairOwners(sched.P, rx.mem.Dead())
		if recoveries >= rx.maxRec || !recoverable {
			if opts.RejoinTimeout > 0 {
				// A spare was consulted and none arrived in time; record the
				// typed timeout so the degradation is attributable.
				rx.tel.Flight(rx.me, telemetry.FlightJoin, telemetry.StepNone, -1, -1, "rejoin timeout, degrading")
			}
			break
		}
		recoveries++
		rx.rep.resetDegradation()
	}

	// Fallback: one compose-partial epoch over the best repaired plan. The
	// replicas still contribute every dead layer whose buddy survived; the
	// result is forcibly flagged Degraded because it was never certified.
	plan, owners := sched, []int(nil)
	if rx.mem.NumDead() > 0 {
		if plan, owners, err = schedule.Repair(sched, rx.mem.Dead()); err != nil {
			return nil, nil, err
		}
	}
	fopts := opts
	fopts.OnMissing = ComposePartial
	rx.rep.resetDegradation()
	final, _, err = runAttempt(c, plan, rx.local, fopts, rx.cdc, rx.rep, rx.scr, rx, owners)
	if err != nil {
		return nil, nil, err
	}
	rx.rep.Degraded = true
	rx.rep.Recovered = false
	rx.rep.RecoveryEpochs = recoveries + 1
	for l, o := range owners {
		if o >= 0 && o != l {
			rx.rep.RecoveredRanks = append(rx.rep.RecoveredRanks, l)
		}
	}
	rx.tel.Add(rx.me, telemetry.CtrRecoveryEpochs, int64(rx.rep.RecoveryEpochs))
	finalizeReport(c, rx.rep, rx.tel)
	return final, rx.rep, nil
}

// sendReplica ships the local sub-image to a buddy under tag and counts it
// in the replica counters. The frame — uvarint width, uvarint height, then
// the codec-compressed pixels — is built in the run scratch, which Send
// copies out of.
func sendReplica(c comm.Comm, tel *telemetry.Recorder, scr *runScratch, to, tag int, img *raster.Image, cdc codec.Codec) error {
	buf := scr.reserveEnc(2*binary.MaxVarintLen64 + encBound(len(img.Pix)))
	buf = binary.AppendUvarint(buf, uint64(img.W))
	buf = binary.AppendUvarint(buf, uint64(img.H))
	scr.enc = cdc.EncodeAppend(buf, img.Pix)
	if err := c.Send(to, tag, scr.enc); err != nil {
		return err
	}
	me := c.Rank()
	tel.Add(me, telemetry.CtrReplicaMsgs, 1)
	tel.Add(me, telemetry.CtrReplicaRawBytes, int64(len(img.Pix)))
	tel.Add(me, telemetry.CtrReplicaWireBytes, int64(len(scr.enc)))
	return nil
}

// decodeReplica inverts sendReplica's frame into a pooled pixel buffer (release
// it with bufpool.Put); all failures wrap codec.ErrCorrupt. The image never
// aliases payload, so the wire buffer recycles either way.
func decodeReplica(payload []byte, cdc codec.Codec, w, h int) (*raster.Image, error) {
	rw, off := binary.Uvarint(payload)
	if off <= 0 {
		return nil, fmt.Errorf("compositor: %w: replica width", codec.ErrCorrupt)
	}
	rest := payload[off:]
	rh, off := binary.Uvarint(rest)
	if off <= 0 {
		return nil, fmt.Errorf("compositor: %w: replica height", codec.ErrCorrupt)
	}
	rest = rest[off:]
	if rw != uint64(w) || rh != uint64(h) {
		return nil, fmt.Errorf("compositor: %w: replica is %dx%d, want %dx%d", codec.ErrCorrupt, rw, rh, w, h)
	}
	buf := bufpool.Get(w * h * raster.BytesPerPixel)
	pix, err := cdc.DecodeInto(buf, rest, w*h)
	if err != nil {
		bufpool.Put(buf)
		return nil, fmt.Errorf("compositor: decoding replica: %w", err)
	}
	return &raster.Image{W: w, H: h, Pix: pix}, nil
}

// releaseImages returns replica pixels to the buffer pool once a run is
// over: nothing a run returns aliases a replica (staging copies it).
func releaseImages(imgs map[int]*raster.Image) {
	for _, img := range imgs {
		bufpool.Put(img.Pix)
	}
}

// exchangeReplicas ships the local sub-image to this rank's buddy and
// collects the sub-images of the ranks this rank wards, all under the
// epoch-0 replica tag. A failure during the exchange aborts epoch 0 (the
// schedule has not started; agreement and repair handle it), but the
// exchange keeps collecting the remaining frames until its deadline so a
// late ward's replica is not thrown away — it may be the only copy left.
func (rx *rexec) exchangeReplicas() (map[int]*raster.Image, bool, error) {
	p := rx.c.Size()
	replicas := map[int]*raster.Image{}
	if p <= 1 {
		return replicas, false, nil
	}
	endRep := rx.tel.Span(rx.me, telemetry.PhaseReplicate, telemetry.CatNetwork, telemetry.StepNone)
	defer endRep()

	aborted := false
	buddy := schedule.Buddy(rx.me, p)
	if err := sendReplica(rx.c, rx.tel, rx.scr, buddy, tagReplica, rx.local, rx.cdc); err != nil {
		if !comm.IsRecoverable(err) {
			return nil, false, fmt.Errorf("compositor: replica send to buddy %d: %w", buddy, err)
		}
		aborted = rx.abort(suspectsOf(err, buddy))
	}

	pending := map[int]bool{}
	for _, w := range schedule.Wards(rx.me, p) {
		pending[w] = true
	}
	for len(pending) > 0 {
		keys := make([]comm.MsgKey, 0, len(pending)+p)
		for w := range pending {
			keys = append(keys, comm.MsgKey{From: w, Tag: tagReplica})
		}
		keys = append(keys, rx.mem.NoticeKeys(rx.me)...)
		from, tag, payload, err := rx.c.RecvAnyTimeout(keys, rx.opts.RecvTimeout)
		if err != nil {
			var perr *comm.PeerError
			switch {
			case errors.As(err, &perr):
				aborted = rx.abort([]int{perr.Rank})
				delete(pending, perr.Rank)
				continue
			case errors.Is(err, comm.ErrDeadline):
				// A slow ward earns grace here exactly like a slow sender
				// during the composition: its replica may be the only copy,
				// and a brownout is not a death.
				suspects := setKeys(pending)
				if waitPastDeadline(rx.opts, rx.me, suspects) {
					continue
				}
				aborted = rx.abort(suspects)
				return replicas, aborted, nil
			}
			return nil, false, fmt.Errorf("compositor: replica exchange: %w", err)
		}
		if tag == comm.NoticeTag(rx.mem.Epoch()) {
			// Another rank aborted the epoch; keep collecting replicas —
			// they are sent exactly once and may be the only copies.
			bufpool.Put(payload)
			aborted = true
			continue
		}
		delete(pending, from)
		rx.opts.Health.Ok(from)
		img, derr := decodeReplica(payload, rx.cdc, rx.local.W, rx.local.H)
		bufpool.Put(payload)
		if derr != nil {
			// A corrupt replica is dropped: the primary path does not need
			// it, and recovery of `from` would fall back to compose-partial.
			continue
		}
		replicas[from] = img
	}
	return replicas, aborted, nil
}

// commitBroadcast redistributes the certified image from the gather root to
// the surviving ranks. It runs after the commit decision, so it never
// triggers a retry: a peer dying this late simply misses its copy.
func (rx *rexec) commitBroadcast(final *raster.Image) (*raster.Image, error) {
	if rx.opts.GatherRoot < 0 || !rx.opts.Broadcast {
		return final, nil
	}
	root, epoch := rx.opts.GatherRoot, rx.mem.Epoch()
	if rx.me == root {
		for r := 0; r < rx.c.Size(); r++ {
			if r == root || !rx.mem.Alive(r) {
				continue
			}
			if err := rx.c.Send(r, commitTag(epoch), final.Pix); err != nil {
				if comm.IsRecoverable(err) {
					continue
				}
				return nil, fmt.Errorf("compositor: commit broadcast to %d: %w", r, err)
			}
		}
		return final, nil
	}
	data, err := rx.c.RecvTimeout(root, commitTag(epoch), rx.opts.RecvTimeout)
	if err != nil {
		return nil, fmt.Errorf("compositor: commit broadcast from root: %w", err)
	}
	img := raster.New(rx.local.W, rx.local.H)
	if len(data) != len(img.Pix) {
		return nil, fmt.Errorf("compositor: broadcast image has %d bytes, want %d", len(data), len(img.Pix))
	}
	copy(img.Pix, data)
	bufpool.Put(data)
	return img, nil
}

func setKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
