package main

import (
	"bytes"
	"io"
	"time"

	"rtcomp/internal/model"
	"rtcomp/internal/schedule"
)

// tracedFrame is one traced frame with the untraced frame of the same
// input that ran just before it.
type tracedFrame struct {
	ft       *frameTrace
	wall     time.Duration // traced
	untraced time.Duration
	overPix  int64 // Report.OverPixels summed over ranks
	epochs   int   // largest Report.RecoveryEpochs over ranks
}

// runTraced alternates an untraced and a traced frame on each input,
// checks both against the reference and each other, and reports the
// per-layer split of the traced frames.
func runTraced(b *bench, seq []int, dur time.Duration, stderr io.Writer) (result, int) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var frames []tracedFrame
	start := time.Now()
	for f := 0; time.Since(start) < dur; f++ {
		i := seq[f%len(seq)]
		t0 := time.Now()
		uimg, ureps, err := b.frame(i, nil)
		untraced := time.Since(t0)
		_, _, why := b.check(i, uimg, ureps, err)
		res.tally(why, i, stderr)

		ft := newFrameTrace(b.p)
		t0 = time.Now()
		img, reps, err := b.frame(i, ft)
		wall := time.Since(t0)
		_, _, why = b.check(i, img, reps, err)
		if why == "" && (uimg == nil || !bytes.Equal(img.Pix, uimg.Pix)) {
			why = "traced image differs from the untraced one"
		}
		res.tally(why, i, stderr)
		if why != "" {
			continue
		}
		tf := tracedFrame{ft: ft, wall: wall, untraced: untraced}
		for _, rep := range reps {
			tf.overPix += rep.OverPixels
			tf.epochs = max(tf.epochs, rep.RecoveryEpochs)
		}
		frames = append(frames, tf)
	}
	res.Metrics = layerMetrics(b, frames)
	return res, len(frames)
}

// layerMetrics reduces the traced frames to the per-layer metrics: per-frame
// values are summed (.sum) or maxed (.max) over ranks, and each metric is
// the median over frames unless it is a rate over the whole run.
func layerMetrics(b *bench, frames []tracedFrame) map[string]metric {
	m := map[string]metric{}
	perFrame := func(name, unit string, f func(tf tracedFrame) float64) {
		vals := make([]float64, len(frames))
		for k, tf := range frames {
			vals[k] = f(tf)
		}
		m[name] = metric{median(vals), unit}
	}
	overRanks := func(ft *frameTrace, f func(r int) float64) (sum, hi float64) {
		for r := range ft.ranks {
			v := f(r)
			sum += v
			hi = max(hi, v)
		}
		return sum, hi
	}

	perFrame("volume.build_ms", "ms", func(tf tracedFrame) float64 {
		_, hi := overRanks(tf.ft, func(r int) float64 { return ms(tf.ft.build[r]) })
		return hi
	})
	perFrame("shearwarp.render_ms.max", "ms", func(tf tracedFrame) float64 {
		_, hi := overRanks(tf.ft, func(r int) float64 { return ms(tf.ft.render[r]) })
		return hi
	})
	perFrame("shearwarp.render_ms.sum", "ms", func(tf tracedFrame) float64 {
		sum, _ := overRanks(tf.ft, func(r int) float64 { return ms(tf.ft.render[r]) })
		return sum
	})
	perFrame("shearwarp.warp_ms", "ms", func(tf tracedFrame) float64 { return ms(tf.ft.warp) })
	perFrame("compositor.run_ms.max", "ms", func(tf tracedFrame) float64 {
		_, hi := overRanks(tf.ft, func(r int) float64 { return ms(tf.ft.run[r]) })
		return hi
	})
	perFrame("compositor.self_ms.sum", "ms", func(tf tracedFrame) float64 {
		sum, _ := overRanks(tf.ft, func(r int) float64 { return ms(tf.ft.selfTime(r)) })
		return sum
	})
	perFrame("compositor.over_pixels", "count", func(tf tracedFrame) float64 { return float64(tf.overPix) })
	perFrame("compositor.over_ns_per_pixel", "ns", func(tf tracedFrame) float64 {
		sum, _ := overRanks(tf.ft, func(r int) float64 { return float64(tf.ft.selfTime(r)) })
		return sum / float64(max(tf.overPix, 1))
	})
	perFrame("compositor.recovery_epochs", "count", func(tf tracedFrame) float64 { return float64(tf.epochs) })

	// Codec and comm totals over the run, for rates and ratios.
	var tot rankTrace
	var sends []msgSample
	for _, tf := range frames {
		for _, t := range tf.ft.ranks {
			tot.encCalls += t.encCalls
			tot.encRaw += t.encRaw
			tot.encWire += t.encWire
			tot.encTime += t.encTime
			tot.decCalls += t.decCalls
			tot.decRaw += t.decRaw
			tot.decTime += t.decTime
			tot.sendMsgs += t.sendMsgs
			tot.sendTime += t.sendTime
			tot.commErrors += t.commErrors
			sends = append(sends, t.sends...)
		}
	}
	rankSum := func(f func(t *rankTrace) float64) func(tf tracedFrame) float64 {
		return func(tf tracedFrame) float64 {
			sum := 0.0
			for _, t := range tf.ft.ranks {
				sum += f(t)
			}
			return sum
		}
	}
	perFrame("codec.encode_ms.sum", "ms", rankSum(func(t *rankTrace) float64 { return ms(t.encTime) }))
	m["codec.encode_mb_per_s"] = metric{mbPerS(tot.encRaw, tot.encTime), "MB/s"}
	perFrame("codec.decode_ms.sum", "ms", rankSum(func(t *rankTrace) float64 { return ms(t.decTime) }))
	m["codec.decode_mb_per_s"] = metric{mbPerS(tot.decRaw, tot.decTime), "MB/s"}
	m["codec.ratio"] = metric{float64(tot.encRaw) / float64(max(tot.encWire, 1)), "x"}
	perFrame("codec.calls", "count", rankSum(func(t *rankTrace) float64 { return float64(t.encCalls + t.decCalls) }))

	perFrame("comm.send_msgs", "count", rankSum(func(t *rankTrace) float64 { return float64(t.sendMsgs) }))
	perFrame("comm.send_bytes", "bytes", rankSum(func(t *rankTrace) float64 { return float64(t.sendBytes) }))
	perFrame("comm.send_ms.sum", "ms", rankSum(func(t *rankTrace) float64 { return ms(t.sendTime) }))
	m["comm.send_us_per_msg"] = metric{float64(tot.sendTime) / 1e3 / float64(max(tot.sendMsgs, 1)), "us"}
	perFrame("comm.recv_wait_ms.sum", "ms", rankSum(func(t *rankTrace) float64 { return ms(t.recvTime) }))
	perFrame("comm.recv_wait_ms.max", "ms", func(tf tracedFrame) float64 {
		_, hi := overRanks(tf.ft, func(r int) float64 { return ms(tf.ft.ranks[r].recvTime) })
		return hi
	})
	perFrame("comm.deadline_waits", "count", rankSum(func(t *rankTrace) float64 { return float64(t.deadlines) }))
	m["comm.errors"] = metric{float64(tot.commErrors), "count"}

	perFrame("core.unattributed_ms", "ms", func(tf tracedFrame) float64 {
		_, hi := overRanks(tf.ft, func(r int) float64 { return float64(tf.ft.chain(r)) })
		return ms(tf.wall - time.Duration(hi))
	})

	fitModel(m, b.sched, frames, sends, float64(tot.encWire)/float64(max(tot.encRaw, 1)))

	walls := make([]float64, len(frames))
	untraced := make([]float64, len(frames))
	for k, tf := range frames {
		walls[k], untraced[k] = ms(tf.wall), ms(tf.untraced)
	}
	m["trace.overhead_frac"] = metric{median(walls)/median(untraced) - 1, "frac"}
	return m
}

func mbPerS(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}

// fitModel fits the paper's Ts and Tp to the per-message send durations
// against bytes and To to the compositor self time against over pixels,
// then compares model.PredictFromCensus with the measured composition time.
// The census counts raw bytes, so its traffic is scaled by wireFrac, the
// run's wire-to-raw byte ratio.
func fitModel(m map[string]metric, sched *schedule.Schedule, frames []tracedFrame, sends []msgSample, wireFrac float64) {
	xs := make([]float64, len(sends))
	ys := make([]float64, len(sends))
	for k, s := range sends {
		xs[k], ys[k] = float64(s.bytes), float64(s.dur)
	}
	tsNs, tpNs, ok := fitLine(xs, ys)
	if !ok {
		tsNs, tpNs = 0, fitOrigin(xs, ys)
	}
	pix := make([]float64, len(frames))
	self := make([]float64, len(frames))
	for k, tf := range frames {
		pix[k] = float64(tf.overPix)
		for r := range tf.ft.ranks {
			self[k] += float64(tf.ft.selfTime(r))
		}
	}
	toNs := fitOrigin(pix, self)
	params := model.Params{Ts: tsNs * 1e-9, Tp: tpNs * 1e-9, To: toNs * 1e-9}

	censuses := map[int]*schedule.Census{}
	predicted := make([]float64, 0, len(frames))
	for _, tf := range frames {
		c, seen := censuses[tf.ft.npix]
		if !seen {
			c = scaledCensus(sched, tf.ft.npix, wireFrac)
			censuses[tf.ft.npix] = c
		}
		if c != nil {
			predicted = append(predicted, model.PredictFromCensus(c, params)*1e3)
		}
	}
	pred := median(predicted)
	measured := m["compositor.run_ms.max"].Value
	m["model.ts_us"] = metric{tsNs / 1e3, "us"}
	m["model.tp_ns_per_byte"] = metric{tpNs, "ns/byte"}
	m["model.to_ns_per_pixel"] = metric{toNs, "ns"}
	m["model.predicted_ms"] = metric{pred, "ms"}
	m["model.residual_frac"] = metric{(measured - pred) / max(measured, 1e-9), "frac"}
}

// scaledCensus is the schedule's census for npix pixels with every byte
// count multiplied by wireFrac; nil when the schedule does not fit npix.
func scaledCensus(sched *schedule.Schedule, npix int, wireFrac float64) *schedule.Census {
	c, err := schedule.Validate(sched, npix)
	if err != nil {
		return nil
	}
	for _, step := range c.PerRank {
		for r := range step {
			step[r].BytesSent = int64(float64(step[r].BytesSent) * wireFrac)
			step[r].BytesRecv = int64(float64(step[r].BytesRecv) * wireFrac)
		}
	}
	return c
}
