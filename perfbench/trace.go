package main

import (
	"errors"
	"sync"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/raster"
	"rtcomp/internal/traceid"
)

// maxSendSamples caps the per-message samples one rank keeps for the
// cost-model fit in a single frame.
const maxSendSamples = 256

// msgSample is one message send: payload bytes and the time the fabric
// took to accept it.
type msgSample struct {
	bytes int
	dur   time.Duration
}

// rankTrace accumulates one rank's comm and codec activity during one
// traced frame. The decorators below feed it; a mutex guards it because a
// compositor may drive its endpoint or codec from helper goroutines.
type rankTrace struct {
	mu sync.Mutex

	sendMsgs, sendBytes int64
	sendTime            time.Duration
	recvTime            time.Duration
	deadlines           int64 // receives that ended at their deadline
	commErrors          int64 // every other failed send or receive
	sends               []msgSample

	encCalls, encRaw, encWire int64
	encTime                   time.Duration
	decCalls, decRaw          int64
	decTime                   time.Duration
}

func (t *rankTrace) noteSend(n int, dt time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.commErrors++
		return
	}
	t.sendMsgs++
	t.sendBytes += int64(n)
	t.sendTime += dt
	if len(t.sends) < maxSendSamples {
		t.sends = append(t.sends, msgSample{n, dt})
	}
}

func (t *rankTrace) noteRecv(dt time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recvTime += dt
	switch {
	case errors.Is(err, comm.ErrDeadline):
		t.deadlines++
	case err != nil:
		t.commErrors++
	}
}

func (t *rankTrace) noteEncode(raw, wire int, dt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.encCalls++
	t.encRaw += int64(raw)
	t.encWire += int64(wire)
	t.encTime += dt
}

// noteDecode records a decode-side call; raw counts the pixel bytes it
// produced or composited (0 for a validation-only pass).
func (t *rankTrace) noteDecode(raw int, dt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decCalls++
	t.decRaw += int64(raw)
	t.decTime += dt
}

// timedComm times every send and receive of a rank's endpoint. It forwards
// SendCtx so fabrics that carry trace contexts keep doing so.
type timedComm struct {
	comm.Comm
	t *rankTrace
}

func (c *timedComm) Send(to, tag int, payload []byte) error {
	t0 := time.Now()
	err := c.Comm.Send(to, tag, payload)
	c.t.noteSend(len(payload), time.Since(t0), err)
	return err
}

func (c *timedComm) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	t0 := time.Now()
	err := comm.SendCtx(c.Comm, to, tag, payload, tc)
	c.t.noteSend(len(payload), time.Since(t0), err)
	return err
}

func (c *timedComm) Recv(from, tag int) ([]byte, error) {
	t0 := time.Now()
	p, err := c.Comm.Recv(from, tag)
	c.t.noteRecv(time.Since(t0), err)
	return p, err
}

func (c *timedComm) RecvTimeout(from, tag int, timeout time.Duration) ([]byte, error) {
	t0 := time.Now()
	p, err := c.Comm.RecvTimeout(from, tag, timeout)
	c.t.noteRecv(time.Since(t0), err)
	return p, err
}

func (c *timedComm) RecvAny(keys []comm.MsgKey) (int, int, []byte, error) {
	t0 := time.Now()
	from, tag, p, err := c.Comm.RecvAny(keys)
	c.t.noteRecv(time.Since(t0), err)
	return from, tag, p, err
}

func (c *timedComm) RecvAnyTimeout(keys []comm.MsgKey, timeout time.Duration) (int, int, []byte, error) {
	t0 := time.Now()
	from, tag, p, err := c.Comm.RecvAnyTimeout(keys, timeout)
	c.t.noteRecv(time.Since(t0), err)
	return from, tag, p, err
}

// timedCodec times a codec's encode and decode calls.
type timedCodec struct {
	codec.Codec
	t *rankTrace
}

func (c *timedCodec) Encode(pix []uint8) []uint8 {
	t0 := time.Now()
	out := c.Codec.Encode(pix)
	c.t.noteEncode(len(pix), len(out), time.Since(t0))
	return out
}

func (c *timedCodec) EncodeAppend(dst, pix []uint8) []uint8 {
	t0 := time.Now()
	out := c.Codec.EncodeAppend(dst, pix)
	c.t.noteEncode(len(pix), len(out)-len(dst), time.Since(t0))
	return out
}

func (c *timedCodec) Decode(enc []uint8, npix int) ([]uint8, error) {
	t0 := time.Now()
	out, err := c.Codec.Decode(enc, npix)
	c.t.noteDecode(npix*raster.BytesPerPixel, time.Since(t0))
	return out, err
}

func (c *timedCodec) DecodeInto(dst, enc []uint8, npix int) ([]uint8, error) {
	t0 := time.Now()
	out, err := c.Codec.DecodeInto(dst, enc, npix)
	c.t.noteDecode(npix*raster.BytesPerPixel, time.Since(t0))
	return out, err
}

// timedOverCodec is timedCodec for a codec with the fused receive path, so
// the compositor still takes that path through the wrapper.
type timedOverCodec struct {
	timedCodec
	od codec.OverDecoder
}

func (c *timedOverCodec) CheckStream(enc []uint8, npix int) error {
	t0 := time.Now()
	err := c.od.CheckStream(enc, npix)
	c.t.noteDecode(0, time.Since(t0))
	return err
}

func (c *timedOverCodec) DecodeOver(dst, enc []uint8, npix int, encFront bool) (int, error) {
	t0 := time.Now()
	n, err := c.od.DecodeOver(dst, enc, npix, encFront)
	c.t.noteDecode(npix*raster.BytesPerPixel, time.Since(t0))
	return n, err
}

// wrapCodec returns cdc with every call timed into t, exposing
// codec.OverDecoder exactly when cdc does.
func wrapCodec(cdc codec.Codec, t *rankTrace) codec.Codec {
	tc := timedCodec{Codec: cdc, t: t}
	if od, ok := cdc.(codec.OverDecoder); ok {
		return &timedOverCodec{timedCodec: tc, od: od}
	}
	return &tc
}

// frameTrace is one traced frame: the per-rank decorator tallies plus the
// durations of the layer calls the benchmark makes itself.
type frameTrace struct {
	ranks  []*rankTrace
	build  []time.Duration // volume.ByName, per rank (frame workload)
	render []time.Duration // Renderer.Factor + RenderSlab, per rank
	run    []time.Duration // compositor.Run, per rank
	warp   time.Duration   // Renderer.Warp on the gather root
	npix   int             // pixels of the composited image
}

func newFrameTrace(p int) *frameTrace {
	ft := &frameTrace{
		ranks:  make([]*rankTrace, p),
		build:  make([]time.Duration, p),
		render: make([]time.Duration, p),
		run:    make([]time.Duration, p),
	}
	for r := range ft.ranks {
		ft.ranks[r] = &rankTrace{}
	}
	return ft
}

// instrument wraps rank r's endpoint and codec for this traced frame; a
// nil frame trace leaves both untouched.
func (ft *frameTrace) instrument(r int, c comm.Comm, cdc codec.Codec) (comm.Comm, codec.Codec) {
	if ft == nil {
		return c, cdc
	}
	return &timedComm{Comm: c, t: ft.ranks[r]}, wrapCodec(cdc, ft.ranks[r])
}

// chain is rank r's time spent inside timed layers, end to end.
func (ft *frameTrace) chain(r int) time.Duration {
	d := ft.build[r] + ft.render[r] + ft.run[r]
	if r == 0 {
		d += ft.warp
	}
	return d
}

// selfTime is rank r's compositor.Run time not spent in codec or comm.
func (ft *frameTrace) selfTime(r int) time.Duration {
	t := ft.ranks[r]
	return ft.run[r] - t.encTime - t.decTime - t.sendTime - t.recvTime
}
