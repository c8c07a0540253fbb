// Package compositor executes a composition schedule on real image data
// over any comm.Comm fabric: it stages the local partial image into blocks,
// ships and receives blocks step by step, composites received fragments in
// depth order with the "over" operator, and finally gathers the fully
// composited blocks to a root rank.
//
// The same executor runs every method — binary-swap, parallel-pipelined,
// direct-send and both rotate-tiling variants — because the methods differ
// only in their schedules.
package compositor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
)

// Policy selects how a composition reacts to a missing contribution — a
// peer that died or a message that never beat the receive deadline.
type Policy int

const (
	// FailFast aborts the composition with a typed error naming the stall.
	FailFast Policy = iota
	// ComposePartial substitutes blank (fully transparent) data for the
	// missing contributions, finishes the composition, and flags the
	// result via Report.Degraded — the show-must-go-on configuration of an
	// interactive display wall.
	ComposePartial
	// Recover replicates every rank's initial sub-image to a deterministic
	// buddy before step 1, detects failures via deadlines and FAILED
	// notices, agrees on the dead set with the survivors, and re-executes
	// the composition over a repaired schedule — producing a complete,
	// pixel-exact image flagged Recovered instead of a degraded one.
	// Requires a positive RecvTimeout. When the recovery budget
	// (MaxRecoveries) is exhausted or a dead rank's replica died with its
	// buddy, it falls back to one compose-partial epoch and forces the
	// Degraded flag (the result was never certified complete).
	Recover
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail"
	case ComposePartial:
		return "partial"
	case Recover:
		return "recover"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy flag value: "fail"/"fail-fast",
// "partial"/"compose-partial" or "recover".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fail", "fail-fast":
		return FailFast, nil
	case "partial", "compose-partial":
		return ComposePartial, nil
	case "recover":
		return Recover, nil
	}
	return FailFast, fmt.Errorf("compositor: unknown missing-data policy %q (want fail, partial or recover)", s)
}

// Options configures a composition run.
type Options struct {
	// Codec compresses block payloads on the wire; nil means raw.
	Codec codec.Codec
	// GatherRoot is the rank that assembles the final image. Set to a
	// negative value to skip the gather (each rank keeps its final blocks).
	GatherRoot int
	// Broadcast, with a non-negative GatherRoot, redistributes the
	// assembled image from the root so every rank returns it — the
	// display-wall configuration.
	Broadcast bool
	// RecvTimeout bounds every receive of the composition (per step and
	// per gathered rank). Zero waits forever — the lossless-fabric
	// configuration.
	RecvTimeout time.Duration
	// OnMissing selects the degradation policy when a receive deadline
	// elapses or a peer fails. It only takes effect with a non-zero
	// RecvTimeout or a fabric that reports peer failures.
	OnMissing Policy
	// MaxRecoveries bounds how many times the Recover policy re-executes
	// the composition after a failure agreement. Zero means the default
	// (DefaultMaxRecoveries); a negative value forbids re-execution, so
	// any failure goes straight to the compose-partial fallback.
	MaxRecoveries int
	// Telemetry records per-phase spans (encode/send/recv/decode/merge/
	// gather) and per-step byte counters for this run. Nil disables
	// recording — the default, and effectively free on the hot path.
	Telemetry *telemetry.Recorder
	// OnStep, when non-nil, is called with the 0-based step index as this
	// rank enters each composition step — the chaos-testing seam for
	// injecting faults at an exact position in the exchange. Under the
	// Recover policy it fires again for every re-executed epoch. Under the
	// pipelined executor it fires once per step, the first time any tile
	// enters that step.
	OnStep func(step int)
	// Pipeline selects and tunes the message-driven per-tile executor
	// (pipeline.go); the zero value keeps the bulk-synchronous step loop.
	// The configuration must match across all ranks of a run. Under the
	// Recover policy only the first (epoch-0) attempt is pipelined:
	// re-executions over repaired schedules run synchronously after the
	// in-flight window has drained at the recovery budget.
	Pipeline PipelineConfig
	// Adaptive, when non-nil, replaces the static RecvTimeout with per-peer
	// deadlines learned from observed latency (see gray.Estimator): warm
	// peers get tight deadlines, cold peers fall back to RecvTimeout. It
	// also derives the hedge trigger when HedgeConfig.Threshold is zero.
	// It applies to every synchronous attempt, Recover epochs included, and
	// to the pipelined receiver. The estimator should persist across frames
	// of one run so later frames benefit from earlier ones.
	Adaptive *gray.Estimator
	// Health, when non-nil, accumulates gray-failure signals per peer —
	// deadline misses, hedges won, session retransmits — and gates the
	// Recover policy's deadline escalation: a peer that is slow but still
	// delivering earns grace instead of a recovery epoch, until its score
	// is sustained past the escalation bar (see gray.Health).
	Health *gray.Health
	// RejoinTimeout, under the Recover policy, enables the self-healing
	// join path: after every membership change the survivors wait up to
	// this long for a spare rank (RunSpare) to announce itself before they
	// decide to keep recovering degraded. Zero disables rejoin entirely —
	// the pre-existing behavior. Must match across all ranks of a run.
	RejoinTimeout time.Duration
	// ScrubReplicas, under the Recover policy, runs the replica scrub
	// exchange after the buddy exchange: every holder re-hashes its ward
	// replicas against the merkle roots recorded at exchange time and
	// repairs silent corruption from the live copy (scrub_ok /
	// scrub_repaired counters). Must match across all ranks of a run.
	ScrubReplicas bool
	// hookReplicas, when non-nil, is called with this rank's ward replicas
	// right after the scrubber records their fingerprints — the test seam
	// for injecting the silent corruption the scrub pass must detect.
	hookReplicas func(rank int, replicas map[int]*raster.Image)
}

// Report summarises one rank's work during a composition.
type Report struct {
	Rank        int
	Comm        comm.Counters // traffic including the final gather
	OverPixels  int64         // pixels passed through the over kernel
	RawBytes    int64         // block payload bytes before compression
	WireBytes   int64         // block payload bytes after compression
	FinalBlocks int           // final blocks this rank owned before gather

	// Degraded flags a compose-partial result that is missing
	// contributions; the counters below attribute the damage.
	Degraded         bool
	MissingTransfers int   // scheduled messages that never arrived (or failed to send)
	MissingLayerPix  int64 // pixels times absent ranks substituted as blank
	MissingGathers   int   // ranks whose final blocks never reached the gather root

	// Recovered flags a Recover-policy result that lost ranks mid-frame
	// and still certified a complete image from replicated sub-images.
	Recovered      bool
	RecoveryEpochs int   // composition epochs re-executed after agreement
	RecoveredRanks []int // dead ranks whose layers were recovered

	// Rejoined flags a run during which at least one dead rank slot was
	// re-admitted by the join protocol (so the frame committed at full
	// capacity; a fully healed run reports Recovered=false). On a spare
	// (RunSpare) it flags the successful verified state transfer.
	Rejoined      bool
	RejoinEpochs  int   // successful join rounds during the run
	RejoinedRanks []int // rank slots re-admitted by the join protocol
}

// resetDegradation clears the per-epoch damage tallies: they describe the
// image that is finally returned, so an aborted epoch's bookkeeping must
// not leak into the next attempt's report. The cumulative work counters
// (RawBytes, WireBytes, OverPixels) intentionally survive.
func (r *Report) resetDegradation() {
	r.Degraded = false
	r.MissingTransfers = 0
	r.MissingLayerPix = 0
	r.MissingGathers = 0
	r.FinalBlocks = 0
}

// Run executes the schedule for this rank's partial image. On the gather
// root it returns the assembled final image; on other ranks (or when the
// gather is disabled) the image result is nil.
func Run(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options) (*raster.Image, *Report, error) {
	if c.Size() != sched.P {
		return nil, nil, fmt.Errorf("compositor: communicator has %d ranks, schedule wants %d", c.Size(), sched.P)
	}
	if opts.GatherRoot >= sched.P {
		return nil, nil, fmt.Errorf("compositor: gather root %d out of range", opts.GatherRoot)
	}
	cdc := opts.Codec
	if cdc == nil {
		cdc = codec.Raw{}
	}
	if opts.OnMissing == Recover {
		return runRecover(c, sched, local, opts, cdc)
	}
	rep := &Report{Rank: c.Rank()}
	var final *raster.Image
	var err error
	if opts.Pipeline.Enabled {
		final, _, err = runPipelined(c, sched, local, opts, cdc, rep, nil)
	} else {
		scr := newRunScratch()
		final, _, err = runAttempt(c, sched, local, opts, cdc, rep, scr, nil, nil)
		scr.release()
	}
	if err != nil {
		return nil, nil, err
	}
	finalizeReport(c, rep, opts.Telemetry)
	return final, rep, nil
}

// errAborted is the internal result of a Recover attempt abandoned to the
// membership agreement; runAttempt turns it into aborted == true.
var errAborted = errors.New("compositor: attempt aborted")

// attempt is one synchronous execution of a plan on this rank — the step
// loop and the gather that every fault policy shares. The policies differ
// only in the attempt's reaction at a fault site (fault and waitPastDeadline).
type attempt struct {
	c     comm.Comm
	opts  Options // OnMissing selects the reaction
	cdc   codec.Codec
	rep   *Report
	tel   *telemetry.Recorder
	scr   *runScratch
	rx    *rexec // epoch, membership, notices and replicas; nil for a plain fail or partial run
	me    int
	epoch int
}

// runAttempt executes one epoch of plan: it stages the replica layers this
// rank contributes for dead ranks (owners[l] is the rank contributing layer
// l, -1 = absent), runs the step loop, coalesces, fills gaps under
// ComposePartial, checks completeness, gathers and — outside Recover, whose
// broadcast waits for the commit decision — broadcasts. Tags are scoped by
// epoch, so a re-execution never consumes traffic from an aborted attempt.
// aborted reports a Recover attempt abandoned to the membership agreement.
func runAttempt(c comm.Comm, plan *schedule.Schedule, local *raster.Image, opts Options, cdc codec.Codec,
	rep *Report, scr *runScratch, rx *rexec, owners []int) (final *raster.Image, aborted bool, err error) {
	a := &attempt{c: c, opts: opts, cdc: cdc, rep: rep, tel: opts.Telemetry, scr: scr, rx: rx, me: c.Rank()}
	if rx != nil {
		a.epoch = rx.mem.Epoch()
	}
	final, err = a.run(plan, local, owners)
	if errors.Is(err, errAborted) {
		return nil, true, nil
	}
	return final, false, err
}

func (a *attempt) run(plan *schedule.Schedule, local *raster.Image, owners []int) (*raster.Image, error) {
	st := fragstore.New(a.me, plan, local)
	for l, o := range owners {
		if o != a.me || l == a.me {
			continue
		}
		img := a.rx.replicas[l]
		if img == nil {
			// Assigned a dead rank's layer without holding its replica.
			// Partial leaves the layer absent for the gap-filling pass to
			// blank and count. Recover cannot certify completeness, and
			// retries cannot fix this, so its budget drains into the
			// fallback epoch.
			if a.opts.OnMissing == ComposePartial {
				continue
			}
			return nil, a.fault(fmt.Errorf("compositor: no replica of layer %d", l), nil, nil, 0)
		}
		overPix, err := st.InsertLayer(l, img)
		if err != nil {
			return nil, err
		}
		a.rep.OverPixels += overPix
	}

	for si, step := range plan.Steps {
		if a.opts.OnStep != nil {
			a.opts.OnStep(si)
		}
		for h := 0; h < step.PreHalvings; h++ {
			st.HalveAll()
		}
		// Issue every send eagerly, then drain the receives in arrival
		// order (RecvAny): the fabric buffers, so a stepwise schedule
		// cannot deadlock, and arrival-order processing avoids
		// head-of-line blocking when several messages are outstanding.
		a.scr.keys, a.scr.trs = a.scr.keys[:0], a.scr.trs[:0]
		for _, tr := range step.Transfers {
			switch {
			case tr.From == a.me:
				if err := send(a.c, st, a.cdc, a.rep, a.tel, a.epoch, si, tr, a.scr); err != nil {
					err = fmt.Errorf("compositor: step %d: %w", si+1, err)
					if !comm.IsRecoverable(err) {
						return nil, err
					}
					if err := a.fault(err, suspectsOf(err, tr.To), &a.rep.MissingTransfers, 1); err != nil {
						return nil, err
					}
				}
			case tr.To == a.me:
				a.scr.keys = append(a.scr.keys, comm.MsgKey{From: tr.From, Tag: tagFor(a.epoch, si, tr.Block)})
				a.scr.trs = append(a.scr.trs, tr)
			}
		}
		err := a.receive(si, &a.rep.MissingTransfers, func(tr schedule.Transfer, payload []byte) error {
			err := merge(st, a.cdc, a.rep, a.tel, si, tr, payload, a.scr)
			if errors.Is(err, codec.ErrCorrupt) {
				// A corrupt payload is lost like a dropped message; its
				// sender is alive, so a clean re-execution may succeed.
				return a.fault(err, nil, &a.rep.MissingTransfers, 1)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		for h := 0; h < step.PostHalvings; h++ {
			st.HalveAll()
		}
	}

	// A repaired plan stages buddy pairs as adjacent fragments that no
	// transfer ever composites (zero-step meshes, P=2); coalesce before the
	// completeness check.
	overPix, err := st.CoalesceAll()
	if err != nil {
		return nil, err
	}
	a.rep.OverPixels += overPix
	if a.opts.OnMissing == ComposePartial {
		missing, err := st.FillGaps(plan.P)
		if err != nil {
			return nil, err
		}
		a.rep.MissingLayerPix += missing
		if missing > 0 {
			a.rep.Degraded = true
		}
	}
	if err := st.CheckComplete(plan.P); err != nil {
		// The plan finished but some block is not fully composited — only
		// possible when a contribution silently vanished.
		return nil, a.fault(err, nil, nil, 0)
	}
	a.rep.FinalBlocks = st.Len()

	if a.opts.GatherRoot < 0 {
		st.Release()
		return nil, nil
	}
	endGather := a.tel.Span(a.me, telemetry.PhaseGather, telemetry.CatNetwork, telemetry.StepNone)
	final, err := a.gatherFinal(st, local.W, local.H)
	endGather()
	// The gather consumed the composited blocks (copied onto the wire or
	// into the final image); their buffers feed the next composition.
	st.Release()
	if err != nil || a.opts.OnMissing == Recover || !a.opts.Broadcast {
		return final, err
	}
	return broadcastFinal(a.c, a.opts, a.rep, final, local.W, local.H)
}

// gatherFinal ships every rank's final blocks to the gather root and
// assembles the final image there, receiving in arrival order from the
// ranks the membership holds alive.
func (a *attempt) gatherFinal(st *fragstore.Store, w, h int) (*raster.Image, error) {
	root := a.opts.GatherRoot
	buf := encodeFinalBlocks(a.scr, st)
	if a.me != root {
		if err := a.c.Send(root, gatherTag(a.epoch), buf); err != nil {
			err = fmt.Errorf("compositor: gather send: %w", err)
			if !comm.IsRecoverable(err) {
				return nil, err
			}
			return nil, a.fault(err, suspectsOf(err, root), &a.rep.MissingGathers, 1)
		}
		return nil, nil
	}
	out := raster.New(w, h)
	covered, err := insertFinalBlocks(out, st.Tiles(), buf, root)
	if err != nil {
		return nil, err
	}
	a.scr.keys, a.scr.trs = a.scr.keys[:0], a.scr.trs[:0]
	for r := 0; r < a.c.Size(); r++ {
		if r != root && (a.rx == nil || a.rx.mem.Alive(r)) {
			a.scr.keys = append(a.scr.keys, comm.MsgKey{From: r, Tag: gatherTag(a.epoch)})
			a.scr.trs = append(a.scr.trs, schedule.Transfer{From: r, To: root})
		}
	}
	err = a.receive(telemetry.StepNone, &a.rep.MissingGathers, func(tr schedule.Transfer, part []byte) error {
		n, err := insertFinalBlocks(out, st.Tiles(), part, tr.From)
		bufpool.Put(part) // InsertSpan copied the pixels out
		covered += n
		return err
	})
	if err != nil {
		return nil, err
	}
	if covered != w*h && !a.rep.Degraded {
		return nil, a.fault(fmt.Errorf("compositor: gathered blocks cover %d of %d pixels", covered, w*h), nil, nil, 0)
	}
	return out, nil
}

// receive drains the messages staged in scr.keys (with their transfers in
// scr.trs) in arrival order, handing each payload to deliver; si is the
// step, or telemetry.StepNone for the gather. Under Recover it also listens
// for this epoch's FAILED notices. The deadline is the widest adaptive
// deadline across the senders still owing data, falling back to RecvTimeout
// while they are cold, and every arrival feeds the estimator and the health
// score. A lost message goes through fault, which under ComposePartial
// counts it in *lost.
func (a *attempt) receive(si int, lost *int, deliver func(tr schedule.Transfer, payload []byte) error) error {
	cls := gray.ClassStep
	if si == telemetry.StepNone {
		cls = gray.ClassGather
	}
	keys, trs := a.scr.keys, a.scr.trs // keys[:len(trs)] are owed; the rest are notices
	defer func() { a.scr.keys, a.scr.trs = keys[:0], trs[:0] }()
	if a.opts.OnMissing == Recover && len(trs) > 0 {
		keys = append(keys, a.rx.mem.NoticeKeys(a.me)...)
	}
	for len(trs) > 0 {
		timeout := a.opts.RecvTimeout
		if a.opts.Adaptive != nil {
			var adaptive time.Duration
			for _, tr := range trs {
				if d := a.opts.Adaptive.Deadline(cls, tr.From); d > adaptive {
					adaptive = d
				}
			}
			if adaptive > 0 {
				timeout = adaptive
			}
		}
		endRecv := func() {}
		if si != telemetry.StepNone {
			// The gather is timed as a whole by its own span.
			endRecv = a.tel.Span(a.me, telemetry.PhaseRecv, telemetry.CatNetwork, si)
		}
		recvT0 := time.Now()
		from, tag, payload, err := a.c.RecvAnyTimeout(keys, timeout)
		endRecv()
		if err != nil {
			if si == telemetry.StepNone {
				err = fmt.Errorf("compositor: gather: %w", err)
			} else {
				err = fmt.Errorf("compositor: step %d: %w", si+1, err)
			}
			if !comm.IsRecoverable(err) {
				return err
			}
			var perr *comm.PeerError
			if errors.As(err, &perr) {
				// Only that peer's messages are hopeless; partial keeps
				// waiting for the remaining sources.
				n := len(trs)
				keys, trs = dropFrom(keys, trs, perr.Rank)
				if err := a.fault(err, []int{perr.Rank}, lost, n-len(trs)); err != nil {
					return err
				}
				continue
			}
			suspects := senders(trs)
			if errors.Is(err, comm.ErrDeadline) && waitPastDeadline(a.opts, a.me, suspects) {
				continue
			}
			// Everything still owed missed the deadline.
			return a.fault(err, suspects, lost, len(trs))
		}
		i := 0
		for i < len(trs) && keys[i] != (comm.MsgKey{From: from, Tag: tag}) {
			i++
		}
		if i == len(trs) {
			bufpool.Put(payload)
			if a.opts.OnMissing == Recover && tag == comm.NoticeTag(a.epoch) {
				// A peer already broadcast this epoch's failure; no need
				// to repeat it.
				return errAborted
			}
			return fmt.Errorf("compositor: unexpected message from rank %d tag %d", from, tag)
		}
		if a.opts.Adaptive != nil {
			a.opts.Adaptive.Observe(cls, from, time.Since(recvT0))
		}
		a.opts.Health.Ok(from)
		tr := trs[i]
		keys, trs = append(keys[:i], keys[i+1:]...), append(trs[:i], trs[i+1:]...)
		if err := deliver(tr, payload); err != nil {
			return err
		}
	}
	return nil
}

// fault is the attempt's one reaction to a fault, the only place the
// policies differ. FailFast returns err. ComposePartial drops the lost work
// — it flags the result Degraded, adds n to *lost and carries on — unless
// the fault leaves nothing to drop (lost == nil). Recover broadcasts this
// epoch's FAILED notice naming the suspects and abandons the attempt.
func (a *attempt) fault(err error, suspects []int, lost *int, n int) error {
	switch {
	case a.opts.OnMissing == Recover:
		a.rx.abort(suspects)
		return errAborted
	case a.opts.OnMissing == ComposePartial && lost != nil:
		a.rep.Degraded = true
		*lost += n
		return nil
	}
	return err
}

// waitPastDeadline is the one deadline decision of both executors and the
// Recover replica exchange: it counts the deadline hit, charges a miss to
// each suspect and reports whether to keep waiting. Under Recover that is
// graceOrEscalate's brownout-vs-death call; the other policies never wait
// past a deadline.
func waitPastDeadline(opts Options, me int, suspects []int) bool {
	opts.Telemetry.Add(me, telemetry.CtrDeadlineHits, 1)
	for _, s := range suspects {
		opts.Health.DeadlineMiss(s)
	}
	return opts.OnMissing == Recover && graceOrEscalate(opts, me, suspects)
}

// senders lists the distinct source ranks of the transfers, ascending.
func senders(trs []schedule.Transfer) []int {
	out := make([]int, 0, len(trs))
	for _, tr := range trs {
		if !slices.Contains(out, tr.From) {
			out = append(out, tr.From)
		}
	}
	slices.Sort(out)
	return out
}

// dropFrom removes the owed messages sent by rank, keeping the notice keys
// past them, and returns the shortened slices.
func dropFrom(keys []comm.MsgKey, trs []schedule.Transfer, rank int) ([]comm.MsgKey, []schedule.Transfer) {
	n := len(trs)
	keptKeys, keptTrs := keys[:0], trs[:0]
	for i, tr := range trs {
		if tr.From != rank {
			keptKeys, keptTrs = append(keptKeys, keys[i]), append(keptTrs, tr)
		}
	}
	return append(keptKeys, keys[n:]...), keptTrs
}

// broadcastFinal redistributes the assembled image from the gather root so
// every rank returns it — shared by the synchronous and pipelined paths.
func broadcastFinal(c comm.Comm, opts Options, rep *Report, final *raster.Image, w, h int) (*raster.Image, error) {
	var seq comm.Sequencer
	var payload []byte
	if c.Rank() == opts.GatherRoot {
		payload = final.Pix
	}
	data, err := comm.BcastTimeout(c, &seq, opts.GatherRoot, payload, opts.RecvTimeout)
	if err != nil {
		if !(opts.OnMissing == ComposePartial && comm.IsRecoverable(err)) {
			return nil, fmt.Errorf("compositor: broadcast: %w", err)
		}
		rep.Degraded = true
	}
	if c.Rank() != opts.GatherRoot && data != nil {
		final = raster.New(w, h)
		if len(data) != len(final.Pix) {
			return nil, fmt.Errorf("compositor: broadcast image has %d bytes, want %d",
				len(data), len(final.Pix))
		}
		copy(final.Pix, data)
		bufpool.Put(data)
	}
	return final, nil
}

// finalizeReport snapshots the fabric totals and publishes the run-level
// counters, so live /metrics and the rank-0 table see what Report sees. It
// runs once per composition, after the last epoch.
func finalizeReport(c comm.Comm, rep *Report, tel *telemetry.Recorder) {
	rep.Comm = c.Counters()
	me := rep.Rank
	tel.Add(me, telemetry.CtrCommMsgsSent, rep.Comm.MsgsSent)
	tel.Add(me, telemetry.CtrCommBytesSent, rep.Comm.BytesSent)
	tel.Add(me, telemetry.CtrCommMsgsRecv, rep.Comm.MsgsRecv)
	tel.Add(me, telemetry.CtrCommBytesRecv, rep.Comm.BytesRecv)
	tel.Add(me, telemetry.CtrMissingTransfers, int64(rep.MissingTransfers))
}

// tagFor packs (epoch, step, block) into a unique non-negative tag. Epochs
// occupy bits 56+, so they stay unique up to epoch 63 — far beyond any
// recovery budget.
func tagFor(epoch, step int, b schedule.Block) int {
	return epoch<<56 | ((step+1)&0xFFFF)<<40 | (b.Tile&0xFFFF)<<24 | (b.Level&0xFF)<<16 | (b.Index & 0xFFFF)
}

// tagGatherFinal is the epoch-0 tag of the final-block gather messages.
// Step tags always carry step+1 >= 1 in bits 40+, so any value below 2^40
// is free (the replica-exchange tag lives there too).
const tagGatherFinal = (1 << 39) + 0x6A74

// gatherTag scopes the final-block gather to a recovery epoch.
func gatherTag(epoch int) int { return epoch<<56 | tagGatherFinal }

// runScratch holds one rank's reusable buffers for a composition run. The
// step loop re-slices these instead of allocating per message, so after the
// first step warms them a steady-state step allocates nothing.
type runScratch struct {
	enc      []byte                      // assembled outgoing block message
	fragEnc  []byte                      // single-fragment codec output
	encFrags []fragstore.EncodedFragment // parsed-but-undecoded fragment views
	keys     []comm.MsgKey               // pending receive keys
	trs      []schedule.Transfer         // the transfers behind the pending keys
}

// scratchPool recycles runScratch shells (struct and slice headers) across
// runs and across the pipelined executor's workers. The pooled byte
// buffers inside go back to bufpool on release; the shell
// itself would otherwise be allocated once per worker per composition,
// which the allocation benchmarks count against every pipelined cell.
var scratchPool = sync.Pool{
	New: func() any { return new(runScratch) },
}

func newRunScratch() *runScratch {
	return scratchPool.Get().(*runScratch)
}

// reserveEnc returns an empty slice with at least `need` capacity for the
// outgoing-message buffer, drawing replacements from the pool so a fresh
// scratch warms up without append-growth churn. `need` is a pre-sizing hint,
// not a limit: append past it still works, it just reallocates.
func (scr *runScratch) reserveEnc(need int) []byte {
	if cap(scr.enc) < need {
		bufpool.Put(scr.enc[:0])
		scr.enc = bufpool.Get(need)[:0]
	}
	return scr.enc[:0]
}

// release returns the scratch's pooled buffers to bufpool and the scratch
// shell to its own pool; the scratch warms up again on next use. Call when
// a composition run completes — the caller must not touch scr afterwards.
func (scr *runScratch) release() {
	bufpool.Put(scr.enc[:0])
	bufpool.Put(scr.fragEnc[:0])
	scr.enc, scr.fragEnc = nil, nil
	scr.keys, scr.trs = scr.keys[:0], scr.trs[:0]
	scr.encFrags = scr.encFrags[:0]
	scratchPool.Put(scr)
}

// encBound over-estimates the encoded size of a fragment's pixels: every
// codec in this package emits at most 2x the raw bytes plus a small header
// (RLE's worst case is 1.5x; TRLE's is 9/8x plus a uvarint). An external
// codec that exceeds it only costs an append reallocation.
func encBound(rawLen int) int { return 2*rawLen + 32 }

// EncodeFragmentsAppend serialises a fragment list with the given codec,
// appending to dst: uvarint(count), then per fragment uvarint(lo),
// uvarint(hi), uvarint(len(enc)), enc. It also reports the raw and encoded
// payload sizes, and allocates nothing once dst and *fragScratch are warm.
// Each fragment is encoded into *fragScratch first — the format puts
// uvarint(len(enc)) before enc, so the length must be known before the
// bytes land in the message — then copied in.
func EncodeFragmentsAppend(dst []byte, frags []fragstore.Fragment, cdc codec.Codec, fragScratch *[]byte) (buf []byte, raw, wire int64) {
	buf = binary.AppendUvarint(dst, uint64(len(frags)))
	for _, f := range frags {
		if need := encBound(len(f.Data)); cap(*fragScratch) < need {
			bufpool.Put((*fragScratch)[:0])
			*fragScratch = bufpool.Get(need)[:0]
		}
		*fragScratch = cdc.EncodeAppend((*fragScratch)[:0], f.Data)
		enc := *fragScratch
		raw += int64(len(f.Data))
		wire += int64(len(enc))
		buf = binary.AppendUvarint(buf, uint64(f.Rng.Lo))
		buf = binary.AppendUvarint(buf, uint64(f.Rng.Hi))
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
	}
	return buf, raw, wire
}

func send(c comm.Comm, st *fragstore.Store, cdc codec.Codec, rep *Report, tel *telemetry.Recorder, epoch, step int, tr schedule.Transfer, scr *runScratch) error {
	frags, err := st.Take(tr.Block)
	if err != nil {
		return err
	}
	need := 16
	for _, f := range frags {
		need += encBound(len(f.Data))
	}
	endEnc := tel.Span(rep.Rank, telemetry.PhaseEncode, telemetry.CatCompute, step)
	buf, raw, wire := EncodeFragmentsAppend(scr.reserveEnc(need), frags, cdc, &scr.fragEnc)
	endEnc()
	scr.enc = buf
	// The message holds a copy of the fragment data (append-style encoders
	// never alias their input), so the taken buffers recycle immediately.
	fragstore.ReleaseAll(frags)
	rep.RawBytes += raw
	rep.WireBytes += wire
	tel.AddStep(rep.Rank, step, telemetry.CtrMsgs, 1)
	tel.AddStep(rep.Rank, step, telemetry.CtrRawBytes, raw)
	tel.AddStep(rep.Rank, step, telemetry.CtrWireBytes, wire)
	endSend := tel.Span(rep.Rank, telemetry.PhaseSend, telemetry.CatNetwork, step)
	err = comm.SendCtx(c, tr.To, tagFor(epoch, step, tr.Block), buf,
		traceid.Context{Step: step, Tile: tr.Block.Tile, Epoch: epoch})
	endSend()
	return err
}

// parseEncodedFragments walks a block message's envelope — uvarint(count),
// then per fragment uvarint(lo), uvarint(hi), uvarint(len(enc)), enc —
// without decoding any pixels. The returned fragments alias payload, so the
// caller must not recycle payload until it is done with them. All failures
// wrap codec.ErrCorrupt.
func parseEncodedFragments(dst []fragstore.EncodedFragment, payload []byte) ([]fragstore.EncodedFragment, error) {
	nfrags, off := binary.Uvarint(payload)
	if off <= 0 {
		return nil, fmt.Errorf("compositor: %w: block message header", codec.ErrCorrupt)
	}
	rest := payload[off:]
	for i := uint64(0); i < nfrags; i++ {
		var vals [3]uint64
		for j := range vals {
			v, k := binary.Uvarint(rest)
			if k <= 0 {
				return nil, fmt.Errorf("compositor: %w: fragment header", codec.ErrCorrupt)
			}
			vals[j], rest = v, rest[k:]
		}
		n := vals[2]
		if uint64(len(rest)) < n {
			return nil, fmt.Errorf("compositor: %w: fragment length", codec.ErrCorrupt)
		}
		dst = append(dst, fragstore.EncodedFragment{
			Rng: schedule.RankRange{Lo: int(vals[0]), Hi: int(vals[1])},
			Enc: rest[:n:n],
		})
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("compositor: %w: %d trailing bytes in block message", codec.ErrCorrupt, len(rest))
	}
	return dst, nil
}

func merge(st *fragstore.Store, cdc codec.Codec, rep *Report, tel *telemetry.Recorder, step int, tr schedule.Transfer, payload []byte, scr *runScratch) error {
	endDec := tel.Span(rep.Rank, telemetry.PhaseDecode, telemetry.CatCompute, step)
	incoming, err := parseEncodedFragments(scr.encFrags[:0], payload)
	endDec()
	if err != nil {
		bufpool.Put(payload)
		return fmt.Errorf("block %v from rank %d: %w", tr.Block, tr.From, err)
	}
	scr.encFrags = incoming[:0]
	endMerge := tel.Span(rep.Rank, telemetry.PhaseMerge, telemetry.CatCompute, step)
	overPix, err := st.MergeEncoded(tr.Block, incoming, cdc)
	endMerge()
	// MergeEncoded never retains views into the wire payload, so the
	// fabric's receive buffer recycles here — on the corrupt path too.
	bufpool.Put(payload)
	if err != nil {
		return fmt.Errorf("block %v from rank %d: %w", tr.Block, tr.From, err)
	}
	rep.OverPixels += overPix
	tel.AddStep(rep.Rank, step, telemetry.CtrOverPixels, overPix)
	return nil
}

// encodeFinalBlocks serialises a rank's final blocks for the gather into the
// scratch's message buffer: uvarint block count, then per block uvarint
// tile/level/index followed by the raw composited pixels. Payloads travel
// raw: they are dense after compositing, and the paper's composition-time
// figures exclude the gather as a common cost across all methods. The frame
// stays valid until the scratch's next use.
func encodeFinalBlocks(scr *runScratch, st *fragstore.Store) []byte {
	blocks := st.Blocks()
	need := 16
	for _, b := range blocks {
		need += len(st.Frags(b)[0].Data) + 32
	}
	buf := binary.AppendUvarint(scr.reserveEnc(need), uint64(len(blocks)))
	for _, b := range blocks {
		buf = binary.AppendUvarint(buf, uint64(b.Tile))
		buf = binary.AppendUvarint(buf, uint64(b.Level))
		buf = binary.AppendUvarint(buf, uint64(b.Index))
		buf = append(buf, st.Frags(b)[0].Data...)
	}
	scr.enc = buf[:0:cap(buf)]
	return buf
}

// insertFinalBlocks parses one rank's gather payload into out and returns
// the pixels covered.
func insertFinalBlocks(out *raster.Image, tiles []raster.Span, part []byte, from int) (int, error) {
	nblocks, off := binary.Uvarint(part)
	if off <= 0 {
		return 0, fmt.Errorf("compositor: corrupt gather payload from rank %d", from)
	}
	rest := part[off:]
	covered := 0
	for i := uint64(0); i < nblocks; i++ {
		var vals [3]uint64
		for j := range vals {
			v, k := binary.Uvarint(rest)
			if k <= 0 {
				return covered, fmt.Errorf("compositor: corrupt gather block header from rank %d", from)
			}
			vals[j], rest = v, rest[k:]
		}
		b := schedule.Block{Tile: int(vals[0]), Level: int(vals[1]), Index: int(vals[2])}
		span := b.Span(tiles)
		n := span.Len() * raster.BytesPerPixel
		if len(rest) < n {
			return covered, fmt.Errorf("compositor: truncated gather block from rank %d", from)
		}
		out.InsertSpan(span, rest[:n])
		rest = rest[n:]
		covered += span.Len()
	}
	return covered, nil
}
