// The message-driven per-tile pipelined executor behind Options.Pipeline.
//
// Where the synchronous step loop (runOnce) finishes step k on every rank
// before any rank starts k+1, the pipelined executor advances every tile
// through stage→send→recv→merge→gather as its own state machine:
//
//   - A bounded worker pool (the in-flight window) claims tiles from an
//     atomic counter, so all ranks claim tiles in the same increasing
//     order. That shared order is the liveness invariant: the minimal
//     unfinished tile is claimed (or done) on every rank, its restricted
//     sub-schedule is exactly the synchronous schedule of that tile, and
//     eager-send buffering completes it — so any window >= 1 makes
//     progress and the pipeline cannot deadlock.
//   - A single receiver goroutine owns every Recv of the run. The full
//     expected message set is known up front (the schedule's transfers,
//     the progressive-gather contributions, the flow-control credits, the
//     recovery notices), so the receiver posts one arrival-order receive
//     over all of it and dispatches payloads to per-tile channels sized
//     for their full message count — dispatch never blocks the pump.
//   - Completed tiles stream to the gather root immediately, throttled by
//     a credit window; the root's assembler inserts them into the final
//     frame as they land and fires the progressive-delivery callback the
//     moment a tile's last contribution arrives.
//
// Sends go through a shared mutex (encode stays parallel in the workers;
// only the fabric hand-off is serialized), and messages carry the same
// epoch-scoped tags as the synchronous path, so the per-tile interleaving
// changes nothing about what is sent — only when. The differential tests
// exploit exactly that: pipelined output must be byte-identical to the
// synchronous oracle under any delivery order.
package compositor

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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

// pipePollChunk bounds one blocking receive of the pipelined receiver, so
// it can observe cancellation and accumulate the configured RecvTimeout as
// silence across chunks without a fabric-level interrupt.
const pipePollChunk = 20 * time.Millisecond

// errPipeStop is the internal worker stop signal: the real cause (fatal
// error or recovery abort) is already recorded on the run.
var errPipeStop = errors.New("compositor: pipeline stopped")

// Tile states for the stall dump, advanced by the owning worker.
const (
	stateUnclaimed  int32 = 0
	stateRenderWait int32 = 1
	stateStepBase   int32 = 2 // + 0-based step index
)

// pipeKind classifies one expected message for dispatch.
type pipeKind int8

const (
	kStep     pipeKind = iota // a scheduled block transfer
	kGather                   // a completed tile's final blocks (root only)
	kCredit                   // a progressive-gather credit (non-root only)
	kNotice                   // a recovery FAILED notice
	kHedgeReq                 // a ward's receiver asking for a replica reconstruction
	kHedgeRep                 // a buddy's reconstruction of an overdue transfer
	kStale                    // a late frame to swallow, never to wait for
)

// substantive reports whether the receiver must wait for a message of this
// kind before exiting. Notices may never come; hedge traffic only exists
// when something is overdue; stale frames are consumed if they arrive.
func (k pipeKind) substantive() bool {
	return k == kStep || k == kGather || k == kCredit
}

// pipeExpect is the dispatch record of one expected message.
type pipeExpect struct {
	kind pipeKind
	si   int // step index (kStep) or tile index (kGather)
	tr   schedule.Transfer
	orig comm.MsgKey // kHedgeRep: the original transfer's key, for dedup
}

// tileMsg is one delivery to a tile's state machine. A nil payload marks a
// transfer the receiver declared lost (deadline or dead peer) under the
// compose-partial policy.
type tileMsg struct {
	si      int
	tr      schedule.Transfer
	payload []byte
}

// asmMsg is one contribution to the root's frame assembler: a remote
// gather payload, the root's own completed tile store, or a missing-gather
// notice from the receiver.
type asmMsg struct {
	from    int
	tile    int
	payload []byte
	st      *fragstore.Store
	missing bool
}

// lockedComm serializes Send across the pipelined executor's goroutines
// (workers, assembler, abort notices) without auditing every fabric for
// concurrent-send safety. Receives pass through unlocked — the receiver is
// a single goroutine and must not block senders while it waits.
type lockedComm struct {
	comm.Comm
	mu sync.Mutex
}

func (lc *lockedComm) Send(to, tag int, payload []byte) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.Comm.Send(to, tag, payload)
}

// SendCtx forwards the trace context to the wrapped fabric under the same
// send lock, so causal tracing survives the serialization wrapper.
func (lc *lockedComm) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return comm.SendCtx(lc.Comm, to, tag, payload, tc)
}

// pipeWorker is one worker goroutine's private state: its own scratch and
// its own report shard, merged into the shared report when it exits.
type pipeWorker struct {
	scr *runScratch
	rep Report
}

// pipeRun is the shared state of one pipelined composition epoch.
type pipeRun struct {
	c     comm.Comm // lockedComm over the caller's fabric
	sched *schedule.Schedule
	local *raster.Image
	opts  Options
	cdc   codec.Codec
	tel   *telemetry.Recorder
	rep   *Report // receiver/assembler mutate under mu; workers merge shards
	me    int
	root  int
	epoch int
	recov *rexec // non-nil: epoch-0 attempt under the Recover policy

	plans        [][]tileStep
	spans        []raster.Span
	expected     []int // per tile: gather contributions the root awaits
	expectedFrom []int // per rank: gather messages the root awaits from it
	gatherSends  int   // this rank's progressive gather sends (non-root)
	window       int

	nextTile    atomic.Int64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	states      []atomic.Int32
	stepOnce    []sync.Once

	tileCh  []chan tileMsg
	asmCh   chan asmMsg
	credits chan struct{}

	cancel     chan struct{}
	cancelOnce sync.Once
	abortOnce  sync.Once
	recvDone   chan struct{}
	asmDone    chan struct{}

	expMu  sync.Mutex
	expect map[comm.MsgKey]pipeExpect

	// Gray-failure machinery: the adaptive deadline estimator and peer
	// health scores (both optional), and the hedging state — the dedup sets
	// keyed by the original transfer's message identity, the per-rank plan
	// cache for purity checks and reconstruction, the ward replicas, and
	// the request-serving channel. See hedge.go.
	est       *gray.Estimator
	health    *gray.Health
	hedge     bool
	hedgeMu   sync.Mutex
	delivered map[comm.MsgKey]bool
	hedgedReq map[comm.MsgKey]bool
	planCache map[int][][]tileStep
	replicas  map[int]*raster.Image
	hedgeCh   chan hedgeJob
	hedgeDone chan struct{}

	partials *partialPump

	mu      sync.Mutex
	err     error
	aborted bool
	final   *raster.Image

	sawMissing atomic.Bool
	workerWG   sync.WaitGroup

	t0 time.Time // run start; OnPartial delivery latency is measured from it
}

// newPipeRun builds the run state: per-tile plans, the gather expectation
// tables from a block-flow simulation of the schedule, the dispatch map of
// every message this rank will receive, and the flow-control channels.
func newPipeRun(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options,
	cdc codec.Codec, rep *Report, recov *rexec) (*pipeRun, error) {
	holders, err := finalTileHolders(sched)
	if err != nil {
		return nil, err
	}
	me := c.Rank()
	epoch := 0
	if recov != nil {
		epoch = recov.mem.Epoch()
	}
	pr := &pipeRun{
		c:        &lockedComm{Comm: c},
		sched:    sched,
		local:    local,
		opts:     opts,
		cdc:      cdc,
		tel:      opts.Telemetry,
		rep:      rep,
		me:       me,
		root:     opts.GatherRoot,
		epoch:    epoch,
		recov:    recov,
		est:      opts.Adaptive,
		health:   opts.Health,
		plans:    tilePlans(sched, me),
		spans:    sched.TileSpans(local.NPixels()),
		window:   opts.Pipeline.window(sched.Tiles),
		states:   make([]atomic.Int32, sched.Tiles),
		stepOnce: make([]sync.Once, len(sched.Steps)),
		cancel:   make(chan struct{}),
		recvDone: make(chan struct{}),
		asmDone:  make(chan struct{}),
		expect:   map[comm.MsgKey]pipeExpect{},
	}

	pr.tileCh = make([]chan tileMsg, sched.Tiles)
	for t := range pr.tileCh {
		n := 0
		for _, ts := range pr.plans[t] {
			n += len(ts.recvs)
			for _, tr := range ts.recvs {
				pr.expect[comm.MsgKey{From: tr.From, Tag: tagFor(epoch, ts.step, tr.Block)}] =
					pipeExpect{kind: kStep, si: ts.step, tr: tr}
			}
		}
		pr.tileCh[t] = make(chan tileMsg, n)
	}

	if pr.root >= 0 {
		if me == pr.root {
			pr.expected = make([]int, sched.Tiles)
			pr.expectedFrom = make([]int, sched.P)
			total := 0
			for t, hs := range holders {
				pr.expected[t] = len(hs)
				total += len(hs)
				for _, r := range hs {
					if r != me {
						pr.expectedFrom[r]++
						pr.expect[comm.MsgKey{From: r, Tag: tileGatherTag(epoch, t)}] =
							pipeExpect{kind: kGather, si: t}
					}
				}
			}
			pr.asmCh = make(chan asmMsg, total)
		} else {
			for _, hs := range holders {
				for _, r := range hs {
					if r == me {
						pr.gatherSends++
					}
				}
			}
			pr.credits = make(chan struct{}, pr.gatherSends+1)
			prefill := opts.Pipeline.gatherWindow(pr.gatherSends)
			if prefill > pr.gatherSends {
				prefill = pr.gatherSends
			}
			for i := 0; i < prefill; i++ {
				pr.credits <- struct{}{}
			}
			for seq := 0; seq < pr.gatherSends-prefill; seq++ {
				pr.expect[comm.MsgKey{From: pr.root, Tag: creditTag(epoch, seq)}] =
					pipeExpect{kind: kCredit}
			}
		}
	}
	if recov != nil {
		for _, k := range recov.mem.NoticeKeys(me) {
			pr.expect[k] = pipeExpect{kind: kNotice}
		}
	}
	if opts.Pipeline.Hedge.Enabled {
		pr.initHedge()
	}
	if pr.root >= 0 && me == pr.root {
		pr.partials = newPartialPump(opts.Pipeline, sched.Tiles, pr.tel, me)
	}
	return pr, nil
}

// run executes the pipeline: receiver, assembler (root) and the worker
// window, then joins everything — including after a failure or recovery
// abort, so the in-flight window is fully drained before the caller moves
// on (the recovery barrier depends on this quiescence).
func (pr *pipeRun) run() {
	pr.t0 = time.Now()
	go pr.receiver()
	if pr.hedgeCh != nil {
		go pr.hedgeServer()
	}
	if pr.root >= 0 && pr.me == pr.root {
		go pr.assembler()
	} else {
		close(pr.asmDone)
	}
	for i := 0; i < pr.window; i++ {
		pr.workerWG.Add(1)
		go pr.workerLoop()
	}
	pr.workerWG.Wait()
	<-pr.recvDone
	if pr.hedgeCh != nil {
		// The receiver is the only producer; with it gone the serving
		// queue can drain and close.
		close(pr.hedgeCh)
		<-pr.hedgeDone
	}
	<-pr.asmDone
}

// stop cancels every goroutine of the run (idempotent).
func (pr *pipeRun) stop() {
	pr.cancelOnce.Do(func() { close(pr.cancel) })
}

func (pr *pipeRun) cancelled() bool {
	select {
	case <-pr.cancel:
		return true
	default:
		return false
	}
}

// fail records the first fatal error and cancels the run. It returns
// errPipeStop so workers can `return pr.fail(err)`.
func (pr *pipeRun) fail(err error) error {
	pr.mu.Lock()
	if pr.err == nil {
		pr.err = err
	}
	pr.mu.Unlock()
	pr.stop()
	return errPipeStop
}

func (pr *pipeRun) failf(format string, args ...any) error {
	return pr.fail(fmt.Errorf(format, args...))
}

// abortAttempt abandons a Recover-policy attempt: broadcast this epoch's
// FAILED notice (unless a peer's notice is what triggered the abort), mark
// the run aborted and cancel it. The caller's join then drains the
// in-flight window before the membership agreement runs.
func (pr *pipeRun) abortAttempt(suspects []int, broadcast bool) {
	pr.abortOnce.Do(func() {
		rx := pr.recov
		if broadcast && rx != nil && !rx.noticeSent {
			rx.noticeSent = true
			comm.BroadcastFailure(pr.c, rx.mem, suspects)
			pr.tel.Add(pr.me, telemetry.CtrFailNotices, 1)
		}
		pr.tel.Flight(pr.me, telemetry.FlightEpoch, telemetry.StepNone, -1, -1, "attempt aborted")
		pr.mu.Lock()
		pr.aborted = true
		pr.mu.Unlock()
	})
	pr.stop()
}

// fireOnStep invokes the chaos seam the first time any tile enters a step.
// Each worker passes steps in order within its tile, so first entries are
// still monotone across the run.
func (pr *pipeRun) fireOnStep(si int) {
	if pr.opts.OnStep == nil {
		return
	}
	pr.stepOnce[si].Do(func() { pr.opts.OnStep(si) })
}

// workerLoop claims tiles in the globally shared increasing order and runs
// each through its full state machine. The claim order is load-bearing:
// see the package comment's liveness argument.
func (pr *pipeRun) workerLoop() {
	defer pr.workerWG.Done()
	w := &pipeWorker{scr: newRunScratch(), rep: Report{Rank: pr.me}}
	defer w.scr.release()
	defer pr.mergeWorkerReport(&w.rep)
	for {
		t := int(pr.nextTile.Add(1)) - 1
		if t >= pr.sched.Tiles || pr.cancelled() {
			return
		}
		n := pr.inFlight.Add(1)
		for {
			m := pr.maxInFlight.Load()
			if n <= m || pr.maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		err := pr.runTile(w, t)
		pr.inFlight.Add(-1)
		if err != nil {
			return
		}
	}
}

func (pr *pipeRun) mergeWorkerReport(wr *Report) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.rep.OverPixels += wr.OverPixels
	pr.rep.RawBytes += wr.RawBytes
	pr.rep.WireBytes += wr.WireBytes
	pr.rep.FinalBlocks += wr.FinalBlocks
	pr.rep.MissingTransfers += wr.MissingTransfers
	pr.rep.MissingLayerPix += wr.MissingLayerPix
	pr.rep.MissingGathers += wr.MissingGathers
	pr.rep.Degraded = pr.rep.Degraded || wr.Degraded
}

// runTile advances one tile through stage → step loop → completion →
// progressive gather. Any returned error is errPipeStop; real causes are
// recorded on the run.
func (pr *pipeRun) runTile(w *pipeWorker, t int) error {
	me, tel := pr.me, pr.tel
	claimed := time.Now()
	pr.states[t].Store(stateRenderWait)
	tel.Flight(me, telemetry.FlightTile, telemetry.StepNone, t, -1, "claimed")
	if src := pr.opts.Pipeline.Source; src != nil {
		if err := src.WaitTile(t, pr.spans[t]); err != nil {
			return pr.failf("compositor: tile %d render: %w", t, err)
		}
	}
	endTile := tel.Span(me, telemetry.PhaseTile, telemetry.CatCompute, t)
	defer endTile()

	st := fragstore.NewTileShared(me, pr.spans, pr.local, t)
	handed := false
	defer func() {
		if !handed {
			st.Release()
		}
	}()

	var stash []tileMsg
	for i := range pr.plans[t] {
		ts := &pr.plans[t][i]
		pr.fireOnStep(ts.step)
		pr.states[t].Store(stateStepBase + int32(ts.step))
		tel.Flight(me, telemetry.FlightTile, ts.step, t, -1, "step")
		for h := 0; h < ts.pre; h++ {
			st.HalveAll()
		}
		for _, tr := range ts.sends {
			if err := send(pr.c, st, pr.cdc, &w.rep, tel, pr.epoch, ts.step, tr, w.scr); err != nil {
				if pr.recov != nil {
					if comm.IsRecoverable(err) {
						pr.abortAttempt(suspectsOf(err, tr.To), true)
						return errPipeStop
					}
					return pr.failf("compositor: step %d: %w", ts.step+1, err)
				}
				if pr.opts.OnMissing == ComposePartial && comm.IsRecoverable(err) {
					w.rep.Degraded = true
					w.rep.MissingTransfers++
					continue
				}
				return pr.failf("compositor: step %d: %w", ts.step+1, err)
			}
		}
		// Hedgeable transfers still outstanding for this step arm a timer:
		// if any is overdue past the hedge threshold, the sender's buddy is
		// asked for a byte-identical reconstruction (once per transfer).
		var pending map[comm.MsgKey]schedule.Transfer
		var hedgeC <-chan time.Time
		var hedgeTimer *time.Timer
		if pr.hedge && len(ts.recvs) > 0 {
			pending = map[comm.MsgKey]schedule.Transfer{}
			for _, tr := range ts.recvs {
				if pr.hedgeable(tr.From, ts.step, t) {
					pending[comm.MsgKey{From: tr.From, Tag: tagFor(pr.epoch, ts.step, tr.Block)}] = tr
				}
			}
			if len(pending) > 0 {
				hedgeTimer = time.NewTimer(pr.hedgeDelay(pending))
				hedgeC = hedgeTimer.C
			}
		}
		for need := len(ts.recvs); need > 0; {
			m, ok := takeStashed(&stash, ts.step)
			if !ok {
				select {
				case m = <-pr.tileCh[t]:
				case <-hedgeC:
					hedgeC = nil
					pr.issueHedges(ts.step, t, pending)
					continue
				case <-pr.cancel:
					hedgeStop(hedgeTimer)
					return errPipeStop
				}
				if m.si != ts.step {
					// A sender ahead of us already shipped a later step's
					// block; hold it for that step.
					stash = append(stash, m)
					continue
				}
			}
			need--
			if pending != nil {
				delete(pending, comm.MsgKey{From: m.tr.From, Tag: tagFor(pr.epoch, ts.step, m.tr.Block)})
			}
			if m.payload == nil {
				// The receiver declared this transfer lost (compose-partial).
				w.rep.Degraded = true
				w.rep.MissingTransfers++
				continue
			}
			if err := merge(st, pr.cdc, &w.rep, tel, ts.step, m.tr, m.payload, w.scr); err != nil {
				if errors.Is(err, codec.ErrCorrupt) {
					if pr.recov != nil {
						pr.abortAttempt(nil, true)
						return errPipeStop
					}
					if pr.opts.OnMissing == ComposePartial {
						w.rep.Degraded = true
						w.rep.MissingTransfers++
						continue
					}
				}
				return pr.fail(err)
			}
		}
		hedgeStop(hedgeTimer)
		for h := 0; h < ts.post; h++ {
			st.HalveAll()
		}
	}

	overPix, err := st.CoalesceAll()
	if err != nil {
		return pr.fail(err)
	}
	w.rep.OverPixels += overPix
	if pr.recov == nil && pr.opts.OnMissing == ComposePartial {
		missing, err := st.FillGaps(pr.sched.P)
		if err != nil {
			return pr.fail(err)
		}
		w.rep.MissingLayerPix += missing
		if missing > 0 {
			w.rep.Degraded = true
		}
	}
	if err := st.CheckComplete(pr.sched.P); err != nil {
		if pr.recov != nil {
			pr.abortAttempt(nil, true)
			return errPipeStop
		}
		return pr.fail(err)
	}
	w.rep.FinalBlocks += st.Len()

	if err := pr.deliverTile(w, t, st, &handed); err != nil {
		return err
	}
	pr.states[t].Store(stateStepBase + int32(len(pr.sched.Steps)) + 1)
	tel.Flight(me, telemetry.FlightTile, telemetry.StepNone, t, -1, "done")
	tel.Add(me, telemetry.CtrTilesDone, 1)
	tel.Observe(me, telemetry.HistTileLatency, time.Since(claimed))
	return nil
}

// hedgeStop stops a hedge timer, tolerating the unarmed (nil) case.
func hedgeStop(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// takeStashed pops a stashed delivery for the given step, if any.
func takeStashed(stash *[]tileMsg, si int) (tileMsg, bool) {
	s := *stash
	for i := range s {
		if s[i].si == si {
			m := s[i]
			last := len(s) - 1
			s[i] = s[last]
			s[last] = tileMsg{}
			*stash = s[:last]
			return m, true
		}
	}
	return tileMsg{}, false
}

// deliverTile streams a completed tile to the gather root: the root's own
// workers hand their store to the assembler; remote ranks encode the
// tile's final blocks and send them under the tile-gather tag, throttled
// by the credit window.
func (pr *pipeRun) deliverTile(w *pipeWorker, t int, st *fragstore.Store, handed *bool) error {
	pr.states[t].Store(stateStepBase + int32(len(pr.sched.Steps)))
	pr.tel.Flight(pr.me, telemetry.FlightTile, telemetry.StepNone, t, pr.root, "gather")
	if pr.root < 0 || st.Len() == 0 {
		return nil
	}
	if pr.me == pr.root {
		select {
		case pr.asmCh <- asmMsg{from: pr.me, tile: t, st: st}:
			*handed = true
		case <-pr.cancel:
			return errPipeStop
		}
		return nil
	}
	need := 16
	for _, b := range st.Blocks() {
		need += len(st.Frags(b)[0].Data) + 32
	}
	buf := encodeFinalBlocks(w.scr.reserveEnc(need), st)
	w.scr.enc = buf[:0:cap(buf)]
	select {
	case <-pr.credits:
	default:
		pr.tel.Add(pr.me, telemetry.CtrCreditWaits, 1)
		pr.tel.Flight(pr.me, telemetry.FlightCreditWait, telemetry.StepNone, t, pr.root, "")
		select {
		case <-pr.credits:
		case <-pr.cancel:
			return errPipeStop
		}
	}
	endG := pr.tel.Span(pr.me, telemetry.PhaseGather, telemetry.CatNetwork, t)
	err := comm.SendCtx(pr.c, pr.root, tileGatherTag(pr.epoch, t), buf,
		traceid.Context{Step: -1, Tile: t, Epoch: pr.epoch})
	endG()
	if err != nil {
		if pr.recov != nil {
			if comm.IsRecoverable(err) {
				pr.abortAttempt(suspectsOf(err, pr.root), true)
				return errPipeStop
			}
			return pr.failf("compositor: gather send: %w", err)
		}
		if pr.opts.OnMissing == ComposePartial && comm.IsRecoverable(err) {
			w.rep.Degraded = true
			w.rep.MissingGathers++
			return nil
		}
		return pr.failf("compositor: gather send: %w", err)
	}
	return nil
}

// assembler is the gather root's frame builder: it consumes contributions
// as the receiver (remote tiles) and the local workers (own tiles) produce
// them, inserts the pixels into the final image, grants flow-control
// credits, and fires the progressive-delivery callback exactly once per
// completed tile — the monotonicity contract of OnPartial.
func (pr *pipeRun) assembler() {
	defer close(pr.asmDone)
	out := raster.New(pr.local.W, pr.local.H)
	tiles := pr.sched.Tiles
	remaining := tiles
	got := make([]int, tiles)
	covered := make([]int, tiles)
	fired := make([]bool, tiles)
	consumed := make([]int, pr.sched.P)
	nfired := 0
	for remaining > 0 {
		var m asmMsg
		select {
		case m = <-pr.asmCh:
		case <-pr.cancel:
			return
		}
		t := m.tile
		got[t]++
		switch {
		case m.missing:
			// Receiver-declared loss; degradation is already accounted.
		case m.st != nil:
			for _, b := range m.st.Blocks() {
				span := b.Span(m.st.Tiles())
				out.InsertSpan(span, m.st.Frags(b)[0].Data)
				covered[t] += span.Len()
			}
			m.st.Release()
		default:
			n, err := insertFinalBlocks(out, pr.spans, m.payload, m.from)
			bufpool.Put(m.payload)
			if err != nil {
				pr.fail(err)
				return
			}
			covered[t] += n
			if m.from != pr.root {
				seq := consumed[m.from]
				consumed[m.from]++
				gw := pr.opts.Pipeline.gatherWindow(pr.expectedFrom[m.from])
				if seq+gw < pr.expectedFrom[m.from] {
					pr.tel.Add(pr.me, telemetry.CtrCreditsGranted, 1)
					if err := comm.SendCtx(pr.c, m.from, creditTag(pr.epoch, seq), creditFrame,
						traceid.Context{Step: -1, Tile: t, Epoch: pr.epoch}); err != nil {
						if pr.recov != nil && comm.IsRecoverable(err) {
							pr.abortAttempt(suspectsOf(err, m.from), true)
							return
						}
						if !comm.IsRecoverable(err) {
							pr.fail(fmt.Errorf("compositor: credit grant to rank %d: %w", m.from, err))
							return
						}
						// A dead peer misses its credit; its own deadline
						// releases it.
					}
				}
			}
		}
		if got[t] == pr.expected[t] {
			remaining--
			if covered[t] == pr.spans[t].Len() {
				if !fired[t] {
					fired[t] = true
					nfired++
					pr.tel.Add(pr.me, telemetry.CtrPartialTiles, 1)
					pr.tel.Observe(pr.me, telemetry.HistPartialLatency, time.Since(pr.t0))
					pr.partials.publish(t, pr.spans[t], out.SpanBytes(pr.spans[t]), nfired, tiles)
				}
			} else if pr.recov != nil {
				pr.abortAttempt(nil, true)
				return
			} else if !pr.sawMissing.Load() {
				pr.fail(fmt.Errorf("compositor: tile %d gathered %d of %d pixels",
					t, covered[t], pr.spans[t].Len()))
				return
			}
		}
	}
	pr.mu.Lock()
	pr.final = out
	pr.mu.Unlock()
}

// creditFrame is the one-byte payload of a gather credit.
var creditFrame = []byte{0x43}

// receiver is the single Recv owner of the run: it pumps the fabric over
// the full expected key set and dispatches every message to its consumer.
// Blocking happens in bounded chunks so cancellation is observed and the
// configured RecvTimeout accumulates as continuous silence — matching the
// synchronous path's "deadline of quiet" semantics at pipeline scale.
func (pr *pipeRun) receiver() {
	defer close(pr.recvDone)
	il := newInterleaver(pr.opts.Pipeline.InterleaveSeed)
	defer func() {
		if il != nil {
			for _, p := range il.drain() {
				bufpool.Put(p)
			}
		}
	}()
	gatherMissing := map[int]bool{}
	var keys []comm.MsgKey
	var silence time.Duration
	lastArr := time.Now()
	for {
		// Notice keys are select-only additions (like the synchronous path's
		// RecvAny key lists): the receiver exits once every substantive
		// message is in, not when a notice that may never come arrives.
		// When an estimator is present, the silence budget is the widest
		// adaptive deadline across the peers still owing substantive data —
		// per-peer knowledge tightening (or loosening) the static timeout.
		pr.expMu.Lock()
		keys = keys[:0]
		substantive := 0
		var adaptive time.Duration
		for k, d := range pr.expect {
			keys = append(keys, k)
			if d.kind.substantive() {
				substantive++
				if pr.est != nil {
					cls := gray.ClassStep
					if d.kind != kStep {
						cls = gray.ClassGather
					}
					if dl := pr.est.Deadline(cls, k.From); dl > adaptive {
						adaptive = dl
					}
				}
			}
		}
		pr.expMu.Unlock()
		deadline := pr.opts.RecvTimeout
		if pr.est != nil && adaptive > 0 {
			deadline = adaptive
		}
		if substantive == 0 {
			if il != nil && il.len() > 0 {
				// Flush the reorder buffer first — it may hold a peer's
				// FAILED notice that must still abort this attempt.
				pr.dispatch(il.pop())
				continue
			}
			return
		}
		if pr.cancelled() {
			return
		}
		timeout := pipePollChunk
		if deadline > 0 && deadline < timeout {
			timeout = deadline
		}
		if il != nil && il.len() > 0 {
			timeout = time.Nanosecond
		}
		from, tag, payload, err := pr.c.RecvAnyTimeout(keys, timeout)
		switch {
		case err == nil:
			silence = 0
			if pr.est != nil || pr.health != nil {
				now := time.Now()
				if cls, ok := classOfTag(tag); ok {
					pr.est.Observe(cls, from, now.Sub(lastArr))
				}
				lastArr = now
				pr.health.Ok(from)
			}
			if il != nil {
				il.push(from, tag, payload)
				continue
			}
			pr.dispatch(from, tag, payload)
		case errors.Is(err, comm.ErrDeadline):
			if il != nil && il.len() > 0 {
				pr.dispatch(il.pop())
				continue
			}
			silence += timeout
			if deadline > 0 && silence >= deadline {
				pr.tel.Add(pr.me, telemetry.CtrDeadlineHits, 1)
				if pr.onDeadline(err, gatherMissing) {
					return
				}
				silence = 0
			}
		case comm.IsRecoverable(err):
			if pr.onPeerError(err, gatherMissing) {
				return
			}
		default:
			pr.fail(fmt.Errorf("compositor: pipeline receive: %w", err))
			return
		}
	}
}

// dispatch routes one received message to its consumer. Channel capacities
// cover the full expected message count per consumer, so dispatch never
// blocks the pump.
func (pr *pipeRun) dispatch(from, tag int, payload []byte) {
	key := comm.MsgKey{From: from, Tag: tag}
	pr.expMu.Lock()
	d, ok := pr.expect[key]
	if ok {
		delete(pr.expect, key)
	}
	pr.expMu.Unlock()
	if !ok {
		bufpool.Put(payload)
		pr.fail(fmt.Errorf("compositor: unexpected message from rank %d tag %d", from, tag))
		return
	}
	switch d.kind {
	case kStep:
		if pr.hedge {
			pr.hedgeMu.Lock()
			dup := pr.delivered[key]
			if !dup {
				pr.delivered[key] = true
			}
			pr.hedgeMu.Unlock()
			if dup {
				// A hedged reconstruction already fed the tile; this is the
				// slow original finally arriving.
				bufpool.Put(payload)
				pr.tel.Flight(pr.me, telemetry.FlightHedge, d.si, d.tr.Block.Tile, from,
					"late original dropped")
				return
			}
		}
		pr.tileCh[d.tr.Block.Tile] <- tileMsg{si: d.si, tr: d.tr, payload: payload}
	case kGather:
		pr.asmCh <- asmMsg{from: from, tile: d.si, payload: payload}
	case kCredit:
		bufpool.Put(payload)
		pr.credits <- struct{}{}
	case kNotice:
		bufpool.Put(payload)
		// A peer already broadcast this epoch's failure; abort without
		// repeating it (mirroring the synchronous attempt).
		pr.abortAttempt(nil, false)
	case kHedgeReq:
		// Queue for the serving goroutine; the channel is sized to the
		// full registered request count, so this cannot block the pump.
		select {
		case pr.hedgeCh <- hedgeJob{from: from, payload: payload}:
		default:
			bufpool.Put(payload)
		}
	case kHedgeRep:
		pr.deliverHedge(d.orig, d.si, d.tr, payload)
	case kStale:
		bufpool.Put(payload)
	}
}

// onDeadline handles a real receive deadline (RecvTimeout of continuous
// silence across every outstanding key). Returns true when the receiver
// should exit.
func (pr *pipeRun) onDeadline(err error, gatherMissing map[int]bool) bool {
	suspects := pr.pendingSenders()
	for _, s := range suspects {
		pr.health.DeadlineMiss(s)
	}
	switch {
	case pr.recov != nil:
		// Brownout vs death: with health scoring, a first (or occasional)
		// miss earns grace — the run keeps waiting instead of evicting a
		// peer that is slow but still delivering. Only a score sustained
		// past the escalation bar hands the suspects to failure agreement.
		if pr.health != nil && len(suspects) > 0 {
			escalate := false
			for _, s := range suspects {
				if pr.health.ShouldEscalate(s) {
					escalate = true
					break
				}
			}
			if !escalate {
				pr.tel.Add(pr.me, telemetry.CtrDeadlineGrace, 1)
				pr.tel.Flight(pr.me, telemetry.FlightGray, telemetry.StepNone, -1, -1,
					fmt.Sprintf("deadline grace for ranks %v", suspects))
				return false
			}
			pr.tel.Add(pr.me, telemetry.CtrHealthEscalations, 1)
		}
		pr.abortAttempt(suspects, true)
		return true
	case pr.opts.OnMissing == ComposePartial:
		pr.dropPending(func(comm.MsgKey) bool { return true }, gatherMissing)
		return false // expect is empty now; the loop exits on its own
	default:
		pr.tel.Flight(pr.me, telemetry.FlightStall, telemetry.StepNone, -1, -1, "pipeline stalled")
		pr.fail(fmt.Errorf("compositor: pipeline stalled: %w\n%s", err, pr.stallDump()))
		return true
	}
}

// onPeerError handles a fabric-reported peer failure. Returns true when
// the receiver should exit.
func (pr *pipeRun) onPeerError(err error, gatherMissing map[int]bool) bool {
	var perr *comm.PeerError
	if !errors.As(err, &perr) {
		pr.fail(fmt.Errorf("compositor: pipeline receive: %w", err))
		return true
	}
	switch {
	case pr.recov != nil:
		pr.abortAttempt([]int{perr.Rank}, true)
		return true
	case pr.opts.OnMissing == ComposePartial:
		pr.dropPending(func(k comm.MsgKey) bool { return k.From == perr.Rank }, gatherMissing)
		return false
	default:
		pr.tel.Flight(pr.me, telemetry.FlightStall, telemetry.StepNone, -1, -1, "peer failed")
		pr.fail(fmt.Errorf("compositor: pipeline: %w\n%s", err, pr.stallDump()))
		return true
	}
}

// stallDump is the post-mortem a FailFast stall fails with: the per-tile
// state dump plus the flight recorder's recent event history, so the error
// itself carries what each tile was doing when the run wedged.
func (pr *pipeRun) stallDump() string {
	dump := pr.stateDump()
	if fd := pr.tel.FlightDump(); fd != "" {
		dump += "\n" + fd
	}
	return dump
}

// dropPending declares every matching expected message lost, under the
// compose-partial policy: step transfers become nil-payload deliveries so
// the owning tile substitutes blanks, gather contributions become missing
// notices to the assembler (counted once per source rank), and credits are
// granted locally so no worker starves on a silent root.
func (pr *pipeRun) dropPending(match func(comm.MsgKey) bool, gatherMissing map[int]bool) {
	type drop struct {
		k comm.MsgKey
		d pipeExpect
	}
	pr.expMu.Lock()
	var dropped []drop
	for k, d := range pr.expect {
		if match(k) && d.kind.substantive() {
			dropped = append(dropped, drop{k, d})
			delete(pr.expect, k)
		}
	}
	pr.expMu.Unlock()
	// Under hedging, a transfer whose reconstruction already fed the tile
	// is not missing — only the real losses degrade the frame. Unclaimed
	// drops are marked delivered so a hedge reply still in flight becomes a
	// wasted duplicate instead of a double delivery.
	real := dropped
	if pr.hedge {
		real = dropped[:0]
		var covered []drop
		for _, kd := range dropped {
			if kd.d.kind == kStep {
				pr.hedgeMu.Lock()
				won := pr.delivered[kd.k]
				if !won {
					pr.delivered[kd.k] = true
				}
				pr.hedgeMu.Unlock()
				if won {
					covered = append(covered, kd)
					continue
				}
			}
			real = append(real, kd)
		}
		if len(covered) > 0 {
			// The slow originals of hedge-won transfers are still coming;
			// re-register them as stale so their arrival is swallowed.
			pr.expMu.Lock()
			for _, kd := range covered {
				pr.expect[kd.k] = pipeExpect{kind: kStale}
			}
			pr.expMu.Unlock()
		}
		if len(dropped) > 0 && len(real) == 0 {
			return // every matched loss was already hedge-covered
		}
	}
	pr.sawMissing.Store(true)
	pr.mu.Lock()
	pr.rep.Degraded = true
	pr.mu.Unlock()
	for _, kd := range real {
		switch kd.d.kind {
		case kStep:
			pr.tileCh[kd.d.tr.Block.Tile] <- tileMsg{si: kd.d.si, tr: kd.d.tr}
		case kGather:
			if !gatherMissing[kd.k.From] {
				gatherMissing[kd.k.From] = true
				pr.mu.Lock()
				pr.rep.MissingGathers++
				pr.mu.Unlock()
			}
			pr.asmCh <- asmMsg{from: kd.k.From, tile: kd.d.si, missing: true}
		case kCredit:
			pr.credits <- struct{}{}
		}
	}
}

// pendingSenders lists the distinct source ranks still owing messages,
// ascending — the suspect set of a deadline abort.
func (pr *pipeRun) pendingSenders() []int {
	set := map[int]bool{}
	pr.expMu.Lock()
	for k, d := range pr.expect {
		if d.kind == kStep || d.kind == kGather {
			set[k.From] = true
		}
	}
	pr.expMu.Unlock()
	return setKeys(set)
}

// stateDump renders every tile's pipeline state plus the receiver's
// outstanding debts — the diagnostic a stalled run fails with instead of
// hanging.
func (pr *pipeRun) stateDump() string {
	type debt struct {
		msgs    int
		senders map[int]bool
	}
	perTile := make([]debt, pr.sched.Tiles)
	gathers := 0
	credits := 0
	pr.expMu.Lock()
	for k, d := range pr.expect {
		switch d.kind {
		case kStep:
			t := d.tr.Block.Tile
			if perTile[t].senders == nil {
				perTile[t].senders = map[int]bool{}
			}
			perTile[t].msgs++
			perTile[t].senders[k.From] = true
		case kGather:
			gathers++
		case kCredit:
			credits++
		}
	}
	pr.expMu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "per-tile states (rank %d, window %d, in flight %d):\n",
		pr.me, pr.window, pr.inFlight.Load())
	nsteps := len(pr.sched.Steps)
	for t := range perTile {
		v := pr.states[t].Load()
		var name string
		switch {
		case v == stateUnclaimed:
			name = "unclaimed"
		case v == stateRenderWait:
			name = "awaiting render"
		case v == stateStepBase+int32(nsteps):
			name = "gather"
		case v == stateStepBase+int32(nsteps)+1:
			name = "done"
		default:
			name = fmt.Sprintf("step %d/%d", v-stateStepBase+1, nsteps)
		}
		fmt.Fprintf(&b, "  tile %d: %s", t, name)
		if perTile[t].msgs > 0 {
			fmt.Fprintf(&b, ", awaiting %d message(s) from ranks %v",
				perTile[t].msgs, setKeys(perTile[t].senders))
		}
		b.WriteString("\n")
	}
	if gathers > 0 {
		fmt.Fprintf(&b, "  gather: awaiting %d tile contribution(s)\n", gathers)
	}
	if credits > 0 {
		fmt.Fprintf(&b, "  credits: awaiting %d grant(s) from root %d\n", credits, pr.root)
	}
	return strings.TrimRight(b.String(), "\n")
}

// teardown recycles whatever an aborted or failed run left in flight.
func (pr *pipeRun) teardown() {
	for _, ch := range pr.tileCh {
		for {
			select {
			case m := <-ch:
				bufpool.Put(m.payload)
			default:
				goto next
			}
		}
	next:
	}
	if pr.asmCh != nil {
		for {
			select {
			case m := <-pr.asmCh:
				bufpool.Put(m.payload)
				if m.st != nil {
					m.st.Release()
				}
			default:
				return
			}
		}
	}
}

// runPipelined executes one pipelined epoch. With recov == nil it runs
// under the FailFast/ComposePartial semantics of runOnce; with a recovery
// context it is the epoch-0 attempt of the Recover policy, returning
// aborted == true after a quiescent drain when the attempt must be retried
// synchronously over a repaired schedule.
func runPipelined(c comm.Comm, sched *schedule.Schedule, local *raster.Image, opts Options,
	cdc codec.Codec, rep *Report, recov *rexec) (*raster.Image, bool, error) {
	pr, err := newPipeRun(c, sched, local, opts, cdc, rep, recov)
	if err != nil {
		return nil, false, err
	}
	if pr.hedge {
		if recov != nil {
			// The Recover policy already exchanged buddy replicas; serve
			// hedges from those.
			pr.replicas = recov.replicas
		} else if err := pr.exchangeHedgeReplicas(); err != nil {
			pr.partials.finish()
			return nil, false, err
		}
	}
	pr.run()
	pr.teardown()
	if recov == nil {
		releaseImages(pr.replicas) // this run's own hedge replicas
	}
	pr.partials.finish()
	pr.tel.Add(pr.me, telemetry.CtrPipeInflightMax, pr.maxInFlight.Load())
	pr.mu.Lock()
	ferr, aborted, final := pr.err, pr.aborted, pr.final
	pr.mu.Unlock()
	if ferr != nil {
		return nil, false, ferr
	}
	if aborted {
		return nil, true, nil
	}
	if recov == nil && opts.GatherRoot >= 0 && opts.Broadcast {
		final, err = broadcastFinal(c, opts, rep, final, local.W, local.H)
		if err != nil {
			return nil, false, err
		}
	}
	return final, false, nil
}
