// Command perfbench is the repository benchmark. It runs one workload as a
// closed loop — a single client starts the next frame only after the last
// one completed — checks every frame against a reference computed in
// set-up, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates untraced and traced frames of the same input and reports the
// per-layer split measured by the decorators in trace.go. See README.md.
//
// Usage:
//
//	perfbench -workload composite-raw-inproc -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rtcomp/internal/compositor"
	"rtcomp/internal/raster"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 5
	// warmCycles is how many passes over every input each set-up makes
	// before measuring.
	warmCycles = 1
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed choosing the order of the inputs")
	seconds := fs.Int("seconds", 10, "measured duration in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced split by layer, 0 the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b, setups, err := setUp(spec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: set-up: %v\n", spec.name, err)
		return 1
	}
	defer b.close()
	seq := inputOrder(*seed, len(b.refs))
	runtime.GC()
	dur := time.Duration(*seconds) * time.Second

	var res result
	var frames int
	if *trace == 1 {
		res, frames = runTraced(b, seq, dur, stderr)
	} else {
		res, frames = runPlain(b, seq, dur, stderr)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "# host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "# run: workload=%s seed=%d order=%v seconds=%d trace=%d frames=%d (highest percentile with >=%d beyond: p%d) setups=%d attempted=%d failed=%d\n",
		spec.name, *seed, seq, *seconds, *trace, frames, minBeyond, maxTailPercentile(frames), setupReps, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setUp sets the workload up setupReps times, warming each one up, and
// keeps the last. It returns the duration of every set-up in seconds.
func setUp(spec workloadSpec) (*bench, []float64, error) {
	var b *bench
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		b, err = spec.setup(rep)
		if err != nil {
			return nil, nil, err
		}
		for c := 0; c < warmCycles; c++ {
			for i := range b.refs {
				img, reps, err := b.frame(i, nil)
				if _, _, why := b.check(i, img, reps, err); why != "" {
					b.close()
					return nil, nil, fmt.Errorf("warm-up frame on input %d: %s", i, why)
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return b, setups, nil
}

// check compares a frame with its reference and returns the largest
// per-byte difference, the wire bytes over all ranks and, when the frame
// counts as failed, why.
func (b *bench) check(i int, img *raster.Image, reps []*compositor.Report, err error) (maxErr int, wire int64, why string) {
	if err != nil {
		return 0, 0, err.Error()
	}
	for _, rep := range reps {
		if rep == nil {
			return 0, 0, "a rank returned no report"
		}
		wire += rep.WireBytes
		switch {
		case rep.Degraded:
			why = fmt.Sprintf("rank %d degraded", rep.Rank)
		case rep.Recovered || rep.RecoveryEpochs > 0:
			why = fmt.Sprintf("rank %d needed a recovery epoch", rep.Rank)
		}
	}
	ref := b.refs[i]
	if img == nil || img.W != ref.W || img.H != ref.H {
		return 0, wire, "no image of the reference size on the gather root"
	}
	maxErr = maxAbsDiff(img.Pix, ref.Pix)
	if why == "" && maxErr > b.tol {
		why = fmt.Sprintf("max error %d levels above tolerance %d", maxErr, b.tol)
	}
	return maxErr, wire, why
}

func maxAbsDiff(a, b []uint8) int {
	m := 0
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts a checked frame into the result, reporting the first
// failures on stderr.
func (r *result) tally(why string, input int, stderr io.Writer) {
	r.Attempted++
	if why == "" {
		return
	}
	r.Failed++
	r.Correct = false
	if r.Failed <= 3 {
		fmt.Fprintf(stderr, "perfbench: frame %d (input %d) failed: %s\n", r.Attempted, input, why)
	}
}

// runPlain is the untraced closed loop behind the end-to-end metrics.
func runPlain(b *bench, seq []int, dur time.Duration, stderr io.Writer) (result, int) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var walls, allocs, allocBytes, wires []float64
	var inputs []int
	worst := 0
	var m0, m1 runtime.MemStats
	var busy time.Duration
	start := time.Now()
	for f := 0; time.Since(start) < dur; f++ {
		i := seq[f%len(seq)]
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		img, reps, err := b.frame(i, nil)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		maxErr, wire, why := b.check(i, img, reps, err)
		res.tally(why, i, stderr)
		busy += wall
		worst = max(worst, maxErr)
		walls = append(walls, ms(wall))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		wires = append(wires, float64(wire))
		inputs = append(inputs, i)
	}
	n := len(walls)
	m := res.Metrics
	m["frame_ms.p50"] = metric{quantile(walls, 0.5), "ms"}
	m["frame_ms.p90"] = metric{quantile(walls, 0.9), "ms"}
	m["frames_per_s"] = metric{float64(n) / busy.Seconds(), "1/s"}
	m["ok_frac"] = metric{float64(n-res.Failed) / float64(n), "frac"}
	m["max_abs_err"] = metric{float64(worst), "levels"}
	m["wire_bytes_per_frame"] = metric{inputMean(wires, inputs), "bytes"}
	m["allocs_per_frame"] = metric{inputMean(allocs, inputs), "count"}
	m["alloc_bytes_per_frame"] = metric{inputMean(allocBytes, inputs), "bytes"}
	return res, n
}

// inputMean is the mean over inputs of each input's median, so that the
// value does not depend on where in the input cycle a run stopped.
func inputMean(vals []float64, inputs []int) float64 {
	by := map[int][]float64{}
	for k, v := range vals {
		by[inputs[k]] = append(by[inputs[k]], v)
	}
	sum := 0.0
	for _, vs := range by {
		sum += median(vs)
	}
	return sum / float64(len(by))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}
