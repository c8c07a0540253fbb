package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/compositor"
	"rtcomp/internal/core"
	"rtcomp/internal/experiments"
	"rtcomp/internal/partition"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/shearwarp"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/inproc"
	"rtcomp/internal/transport/tcpnet"
	"rtcomp/internal/volume"
	"rtcomp/internal/xfer"
)

const (
	imageSize = 512 // final image edge, both for composites and frames
	// orbitSteps is how many camera positions the frame workload cycles.
	orbitSteps = 8
	// Tolerances against the serial references, in levels per byte.
	compositeTol = 2
	frameTol     = 3
	// recoverTimeout is the composite-recover receive deadline: long
	// enough never to fire when no rank fails.
	recoverTimeout = 30 * time.Second
)

var datasets = []string{"engine", "head", "brain"}

// bench is one workload, set up and ready to run frames.
type bench struct {
	p     int
	tol   int
	refs  []*raster.Image // reference image per input
	sched *schedule.Schedule
	// frame runs input i once, traced into ft when ft is non-nil, and
	// returns the gather root's image and every rank's report.
	frame func(i int, ft *frameTrace) (*raster.Image, []*compositor.Report, error)
	close func()
}

// workloadSpec names a workload and how to set it up. rep distinguishes
// repeated set-ups within one run.
type workloadSpec struct {
	name  string
	setup func(rep int) (*bench, error)
}

var workloads = []workloadSpec{
	{"frame-engine-tcp", setupFrame},
	{"composite-raw-inproc", compositeSetup(compositeSpec{p: 8, method: "rt:4", codec: "raw"})},
	{"composite-trle-tcp", compositeSetup(compositeSpec{p: 4, method: "nrt:4", codec: "trle", tcp: true})},
	{"composite-recover-inproc", compositeSetup(compositeSpec{p: 8, method: "rt:4", codec: "raw", recover: true})},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// inputOrder is the cycle of input indices a run walks: every input once,
// from a seeded start with a seeded stride coprime to n.
func inputOrder(seed int64, n int) []int {
	var strides []int
	for s := 1; s <= n; s++ {
		if gcd(s, n) == 1 {
			strides = append(strides, s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	start, stride := rng.Intn(n), strides[rng.Intn(len(strides))]
	out := make([]int, n)
	for j := range out {
		out[j] = (start + j*stride) % n
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// tcpMesh starts a persistent p-rank loopback tcpnet mesh with the default
// session layer.
func tcpMesh(p int) ([]comm.Comm, func(), error) {
	lns, addrs, err := tcpnet.ListenLoopback(p)
	if err != nil {
		return nil, nil, err
	}
	eps := make([]comm.Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := tcpnet.Start(tcpnet.Config{Rank: r, Addrs: addrs, Listener: lns[r]})
			if err != nil {
				errs[r] = err
				return
			}
			eps[r] = ep
		}(r)
	}
	wg.Wait()
	closeAll := func() {
		var wg sync.WaitGroup
		for _, ep := range eps {
			if ep == nil {
				continue
			}
			wg.Add(1)
			go func(ep comm.Comm) {
				defer wg.Done()
				ep.Close() // teardown of a finished mesh: nothing to report
			}(ep)
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		closeAll()
		return nil, nil, fmt.Errorf("mesh setup: %w", err)
	}
	return eps, closeAll, nil
}

// runRanks runs fn for every rank concurrently and returns rank 0's image,
// all reports and the joined error.
func runRanks(p int, fn func(r int) (*raster.Image, *compositor.Report, error)) (*raster.Image, []*compositor.Report, error) {
	imgs := make([]*raster.Image, p)
	reps := make([]*compositor.Report, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			imgs[r], reps[r], errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	return imgs[0], reps, errors.Join(errs...)
}

// compositeSpec configures a compositor.Run-only workload.
type compositeSpec struct {
	p       int
	method  string
	codec   string
	tcp     bool // persistent loopback tcpnet mesh instead of in-process
	recover bool // OnMissing: Recover
}

// compositeSetup renders the partials of every dataset, their serial
// references and, for tcp, the mesh.
func compositeSetup(cs compositeSpec) func(rep int) (*bench, error) {
	return func(rep int) (*bench, error) {
		m, err := core.ParseMethod(cs.method)
		if err != nil {
			return nil, err
		}
		sched, err := m.Schedule(cs.p)
		if err != nil {
			return nil, err
		}
		cdc, err := codec.ByName(cs.codec)
		if err != nil {
			return nil, err
		}
		opts := compositor.Options{Codec: cdc, GatherRoot: 0}
		if cs.recover {
			opts.OnMissing = compositor.Recover
			opts.RecvTimeout = recoverTimeout
		}
		b := &bench{p: cs.p, tol: compositeTol, sched: sched, close: func() {}}
		inputs := make([][]*raster.Image, len(datasets))
		for i, ds := range datasets {
			o := experiments.DefaultOptions()
			o.Dataset = ds
			// experiments.Partials memoises by camera: a sub-nanoradian yaw
			// offset makes every repeated set-up render afresh.
			o.Camera.Yaw += float64(rep) * 1e-10
			layers, err := experiments.Partials(o, cs.p)
			if err != nil {
				return nil, err
			}
			inputs[i] = layers
			b.refs = append(b.refs, compose.SerialComposite(layers))
		}
		var mesh []comm.Comm
		if cs.tcp {
			eps, closeMesh, err := tcpMesh(cs.p)
			if err != nil {
				return nil, err
			}
			mesh, b.close = eps, closeMesh
		}
		b.frame = func(i int, ft *frameTrace) (*raster.Image, []*compositor.Report, error) {
			eps := mesh
			if eps == nil {
				// A fresh in-process fabric per frame, as core.RenderParallel
				// makes; endpoints close once every rank has returned.
				fab := inproc.New(cs.p)
				eps = make([]comm.Comm, cs.p)
				for r := range eps {
					eps[r] = fab.Endpoint(r)
				}
				defer func() {
					for _, ep := range eps {
						ep.Close()
					}
				}()
			}
			if ft != nil {
				ft.npix = imageSize * imageSize
			}
			return runRanks(cs.p, func(r int) (*raster.Image, *compositor.Report, error) {
				c, rcdc := ft.instrument(r, eps[r], cdc)
				ropts := opts
				ropts.Codec = rcdc
				t0 := time.Now()
				img, rep, err := compositor.Run(c, sched, inputs[i][r], ropts)
				if ft != nil {
					ft.run[r] = time.Since(t0)
				}
				return img, rep, err
			})
		}
		return b, nil
	}
}

// frameConfig is cmd/rtnode's default configuration at P=4.
func frameConfig() (core.Config, error) {
	m, err := core.ParseMethod("nrt:4")
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Dataset:       "engine",
		VolumeN:       128,
		Camera:        shearwarp.Camera{Yaw: 0.35, Pitch: 0.2},
		Width:         imageSize,
		Height:        imageSize,
		P:             4,
		Method:        m,
		Codec:         "trle",
		Partition:     "1d",
		OnMissing:     "fail",
		MaxRecoveries: 2,
	}, nil
}

// orbitCamera is position k of the frame workload's yaw orbit.
func orbitCamera(base shearwarp.Camera, k int) shearwarp.Camera {
	base.Yaw += 2 * math.Pi * float64(k) / orbitSteps
	return base
}

// setupFrame starts the mesh and renders the serial reference of every
// orbit position.
func setupFrame(int) (*bench, error) {
	cfg, err := frameConfig()
	if err != nil {
		return nil, err
	}
	sched, err := cfg.Method.Schedule(cfg.P)
	if err != nil {
		return nil, err
	}
	b := &bench{p: cfg.P, tol: frameTol, sched: sched}
	for k := 0; k < orbitSteps; k++ {
		c := cfg
		c.Camera = orbitCamera(cfg.Camera, k)
		ref, err := core.RenderSerial(c)
		if err != nil {
			return nil, err
		}
		b.refs = append(b.refs, ref)
	}
	eps, closeMesh, err := tcpMesh(cfg.P)
	if err != nil {
		return nil, err
	}
	b.close = closeMesh
	b.frame = func(i int, ft *frameTrace) (*raster.Image, []*compositor.Report, error) {
		c := cfg
		c.Camera = orbitCamera(cfg.Camera, i)
		c.Telemetry = telemetry.New() // one recorder per frame, as rtnode has per run
		return runRanks(cfg.P, func(r int) (*raster.Image, *compositor.Report, error) {
			if ft == nil {
				return core.RenderRank(eps[r], c)
			}
			return replayRank(eps[r], c, ft, r)
		})
	}
	return b, nil
}

// replayRank makes core.RenderRank's calls one at a time — volume build,
// factor and slab render, composition, warp — so that each layer is timed
// from outside. Its image must equal RenderRank's byte for byte.
func replayRank(c comm.Comm, cfg core.Config, ft *frameTrace, rank int) (*raster.Image, *compositor.Report, error) {
	t0 := time.Now()
	vol := volume.ByName(cfg.Dataset, cfg.VolumeN)
	ft.build[rank] = time.Since(t0)
	if vol == nil {
		return nil, nil, fmt.Errorf("unknown dataset %q", cfg.Dataset)
	}
	r := &shearwarp.Renderer{Vol: vol, TF: xfer.ForDataset(cfg.Dataset)}
	t0 = time.Now()
	view, err := r.Factor(cfg.Camera)
	factor := time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	method, err := cfg.Method.ResolveN(cfg.P, cfg.Width*cfg.Height)
	if err != nil {
		return nil, nil, err
	}
	sched, err := method.Schedule(cfg.P)
	if err != nil {
		return nil, nil, err
	}
	cdc, err := codec.ByName(cfg.Codec)
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	endRender := cfg.Telemetry.Span(rank, telemetry.PhaseRender, telemetry.CatCompute, telemetry.StepNone)
	slabs, err := partition.Slabs1D(view.NK(), cfg.P)
	if err != nil {
		return nil, nil, err
	}
	partial, err := r.RenderSlab(view, slabs[rank].Lo, slabs[rank].Hi)
	endRender()
	ft.render[rank] = factor + time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	policy, err := compositor.ParsePolicy(cfg.OnMissing)
	if err != nil {
		return nil, nil, err
	}
	tc, tcdc := ft.instrument(rank, c, cdc)
	opts := compositor.Options{
		Codec:         tcdc,
		GatherRoot:    0,
		RecvTimeout:   cfg.RecvTimeout,
		OnMissing:     policy,
		MaxRecoveries: cfg.MaxRecoveries,
		Telemetry:     cfg.Telemetry,
	}
	t0 = time.Now()
	inter, rep, err := compositor.Run(tc, sched, partial, opts)
	ft.run[rank] = time.Since(t0)
	if err != nil || inter == nil {
		return nil, rep, err
	}
	ft.npix = inter.W * inter.H
	t0 = time.Now()
	endWarp := cfg.Telemetry.Span(rank, telemetry.PhaseWarp, telemetry.CatCompute, telemetry.StepNone)
	final, err := r.Warp(view, inter, cfg.Width, cfg.Height)
	endWarp()
	ft.warp = time.Since(t0)
	return final, rep, err
}
