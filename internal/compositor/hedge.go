// Speculative tile hedging: masking slow-but-alive ranks in the pipelined
// executor without recovery epochs or evictions.
//
// The buddy-replication scheme of the Recover policy already places a copy
// of every rank's initial sub-image on a deterministic buddy. For a
// transfer whose content is a pure function of the sender's initial layer —
// no receives merged into the sender's tile before the sending step — that
// buddy can reconstruct the exact bytes the sender would put on the wire:
// stage the replica, replay the halvings up to the sending step, take the
// block, encode it with the run's codec. First-step transfers of every
// schedule are pure (and all of direct-send is), which is precisely where a
// browned-out rank stalls the whole pipeline behind it.
//
// When a waiting worker finds a pure transfer overdue by its hedge
// threshold, it sends a tiny request to the sender's buddy on a reserved
// hedge tag; the buddy answers with the reconstruction; the receiver merges
// whichever copy lands first and drops the loser (a delivered-set keyed by
// the original message identity makes the race idempotent). Output stays
// byte-identical to the synchronous oracle, the slow rank is never evicted,
// and a genuinely dead rank still falls through to the existing
// deadline/recovery machinery — hedging masks slowness, not death.
package compositor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/comm"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/gray"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
)

// Hedge tags live in the free bit-36 region of the tag space (step tags
// occupy bits 40+, the gather/credit regions bits 37-39), epoch-scoped like
// every other tag. Bit 35 distinguishes reply from request; the block
// coordinates are masked into the low bits (collisions would need schedules
// beyond 4096 steps, 1024 tiles or 32 halving levels).
const (
	tagHedgeBase = 1 << 36
	tagHedgeRepl = 1 << 35

	// tagHedgeReplica carries the up-front buddy replica exchange of a
	// hedged run outside the Recover policy ("HR"; the Recover policy's
	// own exchange uses tagReplica and is reused as-is).
	tagHedgeReplica = (1 << 39) + 0x4852
)

// hedgeTag addresses one hedge request (or its reply) for a block transfer.
func hedgeTag(epoch, si int, b schedule.Block, reply bool) int {
	t := epoch<<56 | tagHedgeBase |
		(si&0xFFF)<<23 | (b.Tile&0x3FF)<<13 | (b.Level&0x1F)<<8 | (b.Index & 0xFF)
	if reply {
		t |= tagHedgeRepl
	}
	return t
}

// errHedgeReq rejects a malformed hedge-request frame.
var errHedgeReq = errors.New("compositor: malformed hedge request")

// hedgeReqMax bounds every field of a hedge request: far above any real
// schedule, low enough that arithmetic on the decoded values cannot
// overflow.
const hedgeReqMax = 1 << 30

// encodeHedgeReq frames a hedge request: "HQ", then uvarint origin rank,
// step index, tile, level, index.
func encodeHedgeReq(origin, si int, b schedule.Block) []byte {
	buf := make([]byte, 0, 2+5*binary.MaxVarintLen32)
	buf = append(buf, 'H', 'Q')
	buf = binary.AppendUvarint(buf, uint64(origin))
	buf = binary.AppendUvarint(buf, uint64(si))
	buf = binary.AppendUvarint(buf, uint64(b.Tile))
	buf = binary.AppendUvarint(buf, uint64(b.Level))
	buf = binary.AppendUvarint(buf, uint64(b.Index))
	return buf
}

// decodeHedgeReq inverts encodeHedgeReq. It rejects trailing bytes and
// out-of-range fields; semantic validation against the schedule happens in
// buildHedgePayload.
func decodeHedgeReq(p []byte) (origin, si int, b schedule.Block, err error) {
	if len(p) < 2 || p[0] != 'H' || p[1] != 'Q' {
		return 0, 0, schedule.Block{}, errHedgeReq
	}
	rest := p[2:]
	var vals [5]uint64
	for i := range vals {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v >= hedgeReqMax {
			return 0, 0, schedule.Block{}, errHedgeReq
		}
		vals[i] = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return 0, 0, schedule.Block{}, errHedgeReq
	}
	return int(vals[0]), int(vals[1]),
		schedule.Block{Tile: int(vals[2]), Level: int(vals[3]), Index: int(vals[4])}, nil
}

// planPure reports whether a rank's per-tile plan merges nothing before
// step si: its blocks at si are then a pure function of the initial layer
// (halvings only), so a buddy holding the layer replica can reconstruct any
// of them byte-identically. Sends at earlier steps only remove other
// blocks; receives at si itself merge after the step's sends are taken.
func planPure(plan []tileStep, si int) bool {
	for i := range plan {
		if plan[i].step >= si {
			break
		}
		if len(plan[i].recvs) > 0 {
			return false
		}
	}
	return true
}

// classOfTag maps a received tag to the estimator class its latency feeds:
// scheduled block transfers (step index in bits 40+) are ClassStep, the
// progressive-gather tiles and credits are ClassGather, and everything else
// — notices, hedge traffic, replicas — is not observed.
func classOfTag(tag int) (gray.Class, bool) {
	if tag < 0 {
		return 0, false
	}
	if (tag>>40)&0xFFFF != 0 {
		return gray.ClassStep, true
	}
	if tag&(tagTileGatherBase|tagCreditBase) != 0 && tag&((1<<39)|tagHedgeBase) == 0 {
		return gray.ClassGather, true
	}
	return 0, false
}

// hedgeJob is one inbound hedge request queued for the serving goroutine.
type hedgeJob struct {
	from    int
	payload []byte
}

// initHedge wires hedging into a pipeRun being built: the dedup state, the
// per-rank plan cache for purity checks and reconstruction, and the
// select-only expect entries for replies we may receive and requests our
// wards' receivers may send us. Replicas attach later (recovery hand-off or
// the up-front exchange) — serving simply declines while they are absent.
func (pr *pipeRun) initHedge() {
	p := pr.sched.P
	if p < 2 {
		return
	}
	pr.hedge = true
	pr.delivered = map[comm.MsgKey]bool{}
	pr.hedgedReq = map[comm.MsgKey]bool{}
	pr.planCache = map[int][][]tileStep{pr.me: pr.plans}

	// Replies: one per hedgeable receive whose serving buddy is remote
	// (a buddy that is this rank itself serves locally, no message).
	for t, plan := range pr.plans {
		for _, ts := range plan {
			for _, tr := range ts.recvs {
				if !pr.hedgeable(tr.From, ts.step, t) {
					continue
				}
				if b := schedule.Buddy(tr.From, p); b != pr.me {
					orig := comm.MsgKey{From: tr.From, Tag: tagFor(pr.epoch, ts.step, tr.Block)}
					pr.expect[comm.MsgKey{From: b, Tag: hedgeTag(pr.epoch, ts.step, tr.Block, true)}] =
						pipeExpect{kind: kHedgeRep, si: ts.step, tr: tr, orig: orig}
				}
			}
		}
	}

	// Requests: every pure send of every ward may be hedged by its
	// receiver. The channel is sized to the full request count so dispatch
	// never blocks the receiver pump.
	nreq := 0
	for _, ward := range schedule.Wards(pr.me, p) {
		wplans := pr.rankPlans(ward)
		for t, plan := range wplans {
			for _, ts := range plan {
				for _, tr := range ts.sends {
					if tr.To == pr.me || !planPure(wplans[t], ts.step) {
						continue
					}
					pr.expect[comm.MsgKey{From: tr.To, Tag: hedgeTag(pr.epoch, ts.step, tr.Block, false)}] =
						pipeExpect{kind: kHedgeReq}
					nreq++
				}
			}
		}
	}
	if nreq > 0 {
		pr.hedgeCh = make(chan hedgeJob, nreq)
		pr.hedgeDone = make(chan struct{})
	}
}

// rankPlans returns (caching) another rank's per-tile plans. The cache is
// filled single-threaded in initHedge for every rank hedging can touch
// (senders of our receives, our wards); runtime lookups are read-only.
func (pr *pipeRun) rankPlans(r int) [][]tileStep {
	if plans, ok := pr.planCache[r]; ok {
		return plans
	}
	plans := tilePlans(pr.sched, r)
	pr.planCache[r] = plans
	return plans
}

// hedgeable reports whether a transfer from a rank at a step is worth
// hedging: its content must be reconstructable from the sender's replica
// (purity), and the sender must have a buddy other than itself.
func (pr *pipeRun) hedgeable(from, si, tile int) bool {
	if schedule.Buddy(from, pr.sched.P) == from {
		return false
	}
	return planPure(pr.rankPlans(from)[tile], si)
}

// hedgeDelay resolves how long the given step's pending transfers may be
// overdue before hedging: the configured threshold, else the adaptive
// estimator's tightest opinion across the pending peers, else the default.
func (pr *pipeRun) hedgeDelay(pending map[comm.MsgKey]schedule.Transfer) time.Duration {
	if d := pr.opts.Pipeline.Hedge.Threshold; d > 0 {
		return d
	}
	best := time.Duration(0)
	for _, tr := range pending {
		if d := pr.est.HedgeDelay(gray.ClassStep, tr.From); d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	if best > 0 {
		return best
	}
	return DefaultHedgeThreshold
}

// issueHedges fires one hedge round for a step's still-pending hedgeable
// transfers: mark each as requested (once per run), then either ask the
// sender's buddy on the hedge tag or, when this rank is the buddy,
// reconstruct from the local replica directly. Requests are best-effort —
// a failed send or an unanswerable request just leaves the original path
// in charge.
func (pr *pipeRun) issueHedges(si, tile int, pending map[comm.MsgKey]schedule.Transfer) {
	for k, tr := range pending {
		pr.hedgeMu.Lock()
		skip := pr.delivered[k] || pr.hedgedReq[k]
		if !skip {
			pr.hedgedReq[k] = true
		}
		pr.hedgeMu.Unlock()
		if skip {
			continue
		}
		pr.tel.Add(pr.me, telemetry.CtrHedgeRequests, 1)
		pr.tel.Flight(pr.me, telemetry.FlightHedge, si, tile, tr.From, "overdue; hedging")
		if b := schedule.Buddy(tr.From, pr.sched.P); b != pr.me {
			_ = comm.SendCtx(pr.c, b, hedgeTag(pr.epoch, si, tr.Block, false),
				encodeHedgeReq(tr.From, si, tr.Block),
				traceid.Context{Step: si, Tile: tr.Block.Tile, Epoch: pr.epoch})
		} else if payload, ok := pr.buildHedgePayload(tr.From, si, tr.Block); ok {
			pr.tel.Add(pr.me, telemetry.CtrHedgeServed, 1)
			pr.deliverHedge(k, si, tr, payload)
		}
	}
}

// deliverHedge races a reconstructed payload against the original under the
// delivered-set: first copy in wins and feeds the tile, the loser recycles.
func (pr *pipeRun) deliverHedge(orig comm.MsgKey, si int, tr schedule.Transfer, payload []byte) {
	pr.hedgeMu.Lock()
	dup := pr.delivered[orig]
	if !dup {
		pr.delivered[orig] = true
	}
	pr.hedgeMu.Unlock()
	if dup {
		bufpool.Put(payload)
		pr.tel.Add(pr.me, telemetry.CtrHedgeWasted, 1)
		return
	}
	pr.tel.Add(pr.me, telemetry.CtrHedgeWins, 1)
	pr.health.HedgeWon(tr.From)
	pr.tel.Flight(pr.me, telemetry.FlightHedge, si, tr.Block.Tile, tr.From, "hedge won")
	pr.tileCh[tr.Block.Tile] <- tileMsg{si: si, tr: tr, payload: payload}
}

// buildHedgePayload reconstructs the exact wire payload the origin rank
// would send for a block at a step, from its replica: stage the replica's
// tile, replay the halvings up to the sending step, take the block, encode.
// Purity guarantees byte-identity — nothing was ever merged into the
// origin's tile before this step, and halvings are per-block. Reports false
// when the request cannot be served (no replica, impure, out of range).
func (pr *pipeRun) buildHedgePayload(origin, si int, b schedule.Block) ([]byte, bool) {
	if origin < 0 || origin >= pr.sched.P || si < 0 || si >= len(pr.sched.Steps) ||
		b.Tile < 0 || b.Tile >= pr.sched.Tiles {
		return nil, false
	}
	replica := pr.replicas[origin]
	if replica == nil {
		return nil, false
	}
	plans := pr.planCache[origin]
	if plans == nil || !planPure(plans[b.Tile], si) {
		return nil, false
	}
	st := fragstore.NewTile(origin, pr.sched, replica, b.Tile)
	defer st.Release()
	for i := range plans[b.Tile] {
		ts := &plans[b.Tile][i]
		if ts.step > si {
			break
		}
		for h := 0; h < ts.pre; h++ {
			st.HalveAll()
		}
		if ts.step == si {
			break
		}
		for h := 0; h < ts.post; h++ {
			st.HalveAll()
		}
	}
	frags, err := st.Take(b)
	if err != nil {
		return nil, false
	}
	payload, _, _ := EncodeFragments(frags, pr.cdc)
	fragstore.ReleaseAll(frags)
	return payload, true
}

// hedgeServer drains inbound hedge requests and answers each with the
// reconstruction, best-effort: an unanswerable request (bad frame, missing
// replica, impure) is simply dropped — the requester's original path and
// deadline machinery remain in charge.
func (pr *pipeRun) hedgeServer() {
	defer close(pr.hedgeDone)
	for job := range pr.hedgeCh {
		origin, si, b, err := decodeHedgeReq(job.payload)
		bufpool.Put(job.payload)
		if err != nil || pr.cancelled() {
			continue
		}
		payload, ok := pr.buildHedgePayload(origin, si, b)
		if !ok {
			continue
		}
		pr.tel.Add(pr.me, telemetry.CtrHedgeServed, 1)
		pr.tel.Flight(pr.me, telemetry.FlightHedge, si, b.Tile, job.from, "replica served")
		_ = comm.SendCtx(pr.c, job.from, hedgeTag(pr.epoch, si, b, true), payload,
			traceid.Context{Step: si, Tile: b.Tile, Epoch: pr.epoch})
	}
}

// exchangeHedgeReplicas is the up-front buddy replica exchange of a hedged
// run outside the Recover policy (which already holds replicas). It runs
// before the receiver starts, on its own tag, and is best-effort: a ward
// whose replica never arrives is simply unhedgeable, and its late frame is
// registered as stale so it cannot fail the receiver as unexpected.
func (pr *pipeRun) exchangeHedgeReplicas() error {
	p := pr.sched.P
	buddy := schedule.Buddy(pr.me, p)
	wards := schedule.Wards(pr.me, p)
	if buddy == pr.me && len(wards) == 0 {
		return nil
	}
	if src := pr.opts.Pipeline.Source; src != nil {
		// The replica must be the final local sub-image; hedging trades
		// render overlap for it, exactly like the Recover policy.
		for t, span := range pr.spans {
			if err := src.WaitTile(t, span); err != nil {
				return fmt.Errorf("compositor: tile %d render: %w", t, err)
			}
		}
	}
	end := pr.tel.Span(pr.me, telemetry.PhaseReplicate, telemetry.CatNetwork, telemetry.StepNone)
	defer end()
	if buddy != pr.me {
		scr := newRunScratch()
		defer scr.release()
		frame := encodeReplica(scr, pr.local, pr.cdc)
		pr.tel.Add(pr.me, telemetry.CtrReplicaMsgs, 1)
		pr.tel.Add(pr.me, telemetry.CtrReplicaRawBytes, int64(len(pr.local.Pix)))
		pr.tel.Add(pr.me, telemetry.CtrReplicaWireBytes, int64(len(frame)))
		// Best-effort: a failed send only costs the buddy its ability to
		// hedge for us.
		_ = pr.c.Send(buddy, tagHedgeReplica, frame)
	}
	pr.replicas = map[int]*raster.Image{}
	timeout := pr.opts.RecvTimeout
	if timeout <= 0 || timeout > 5*time.Second {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	need := map[int]bool{}
	var keys []comm.MsgKey
	for _, w := range wards {
		need[w] = true
		keys = append(keys, comm.MsgKey{From: w, Tag: tagHedgeReplica})
	}
	for len(need) > 0 {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		from, _, payload, err := pr.c.RecvAnyTimeout(keys, remain)
		if err != nil {
			break // deadline or peer failure: hedge-degraded, never fatal
		}
		img, derr := decodeReplica(payload, pr.cdc, pr.local.W, pr.local.H)
		bufpool.Put(payload)
		if derr == nil && need[from] {
			delete(need, from)
			for i, k := range keys {
				if k.From == from {
					keys = append(keys[:i], keys[i+1:]...)
					break
				}
			}
			pr.replicas[from] = img
		}
	}
	for w := range need {
		pr.expect[comm.MsgKey{From: w, Tag: tagHedgeReplica}] = pipeExpect{kind: kStale}
	}
	return nil
}
