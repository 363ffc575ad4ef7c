// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload — a seed-fixed list of jobs driven through the public
// functions of jobspec, dist and server — checks every job's Series
// bit for bit against a reference, and prints one JSON line of metrics.
//
//	perfbench -workload sim-jobs|dist-cold|serve -seed N -seconds S -trace 0|1 \
//	    -node-bin path/to/ppm-node -out dir
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it
// traces every other job, prints the per-layer metrics, and writes the
// spans to <out>/trace-<workload>-<seed>.json as Chrome trace events.
// perfbench/run.sh builds the binaries and runs it; README.md in this
// directory explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ppm/internal/jobspec"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// endToEnd lists the end-to-end metrics an untraced run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
	// ok_share is 1 - fail_share (failed or mismatched jobs over
	// attempted), kept as a share of successes so it is never 0.
	{"ok_share", "share"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one job's measurement.
type outcome struct {
	job job
	lat time.Duration // from the first call to the returned result
	res *jobspec.Result
	err error

	tr    *tracer          // nil unless the job is traced
	root  *span            // the job's own span
	spans map[string]*span // the job's calls by name (traced jobs only)

	// serve only
	accepted  time.Time // POST answered
	phaseGaps []float64 // ms between consecutive phase events
	startMS   float64   // accepted to the first phase event; 0: not seen
	resultKB  float64   // GET /v1/jobs/{id} body size
}

func (r *run) newOutcome(j job, traced bool) *outcome {
	o := &outcome{job: j, spans: map[string]*span{}}
	if traced {
		o.tr = r.tr
		o.root = r.tr.start(nil, "bench", "job."+j.class, o.name())
	}
	return o
}

func (o *outcome) name() string { return fmt.Sprintf("%s-%d", o.job.class, o.job.id) }

// call opens a span around one public call of the program.
func (o *outcome) call(layer, name string) *span {
	s := o.tr.start(o.root, layer, name, o.name())
	if s != nil {
		o.spans[name] = s
	}
	return s
}

// spanMS is the duration of the job's call name, if it was traced.
func (o *outcome) spanMS(name string) (float64, bool) {
	s := o.spans[name]
	if s == nil {
		return 0, false
	}
	return ms(s.dur()), true
}

// run holds a workload run's state and measurements.
type run struct {
	w       workload
	jobs    []job
	warm    []job
	nodeBin string
	outDir  string
	trace   bool
	tr      *tracer

	refs     map[int]seriesDigest // fresh job id -> its sim reference's Series
	results  []seriesDigest       // job id -> the Series the job returned
	setups   []time.Duration
	outs     []*outcome
	wall     time.Duration
	cpu      time.Duration
	peakRSS  int64
	memStart runtime.MemStats
	memEnd   runtime.MemStats
	calib    [2]time.Duration
	layer    map[string]metric // workload-specific per-layer metrics
}

func main() {
	name := flag.String("workload", "", "sim-jobs, dist-cold, or serve")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same job list")
	seconds := flag.Int("seconds", 20, "sizes the fixed job list (about seconds x the workload's nominal rate)")
	traceFlag := flag.Int("trace", 0, "1: trace every other job and print the per-layer metrics")
	nodeBin := flag.String("node-bin", "", "ppm-node binary (dist-cold and serve)")
	outDir := flag.String("out", ".", "directory for the trace file")
	commit := flag.String("commit", "unknown", "source revision, for the header")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want sim-jobs, dist-cold, or serve)\n", *name)
		os.Exit(2)
	}
	if w.name != "sim-jobs" {
		if _, err := os.Stat(*nodeBin); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s needs -node-bin: %v\n", w.name, err)
			os.Exit(2)
		}
	}
	n := w.jobCount(*seconds)
	jobs, warm := buildJobs(w, *seed, n)
	r := &run{w: w, jobs: jobs, warm: warm, nodeBin: *nodeBin, outDir: *outDir,
		trace: *traceFlag == 1, refs: map[int]seriesDigest{}, layer: map[string]metric{}}
	r.results = make([]seriesDigest, len(warm)+len(jobs))
	if r.trace {
		r.tr = newTracer()
	}
	fmt.Printf("# perfbench workload=%s seed=%d jobs=%d warmup=%d clients=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s trace=%d\n",
		w.name, *seed, len(jobs), len(warm), w.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), *commit, *traceFlag)

	var err error
	switch w.name {
	case "sim-jobs":
		err = r.simJobs()
	case "dist-cold":
		err = r.distCold()
	case "serve":
		err = r.serve()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if r.trace {
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := r.tr.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# trace: %s\n", path)
	}
	os.Exit(r.report())
}

// timed runs the timed window: calibration probe, snapshots, body,
// snapshots, calibration probe. concurrent is how many child processes
// the workload runs at once (for the peak-RSS estimate).
func (r *run) timed(concurrent int, body func()) {
	r.calib[0] = calibrate()
	runtime.GC()
	resetPeakRSS()
	runtime.ReadMemStats(&r.memStart)
	c0 := takeCPU()
	t0 := time.Now()
	body()
	r.wall = time.Since(t0)
	c1 := takeCPU()
	runtime.ReadMemStats(&r.memEnd)
	r.cpu = c1.cpuSince(c0)
	r.peakRSS = procHWM(os.Getpid()) + c1.childPeakRSS(concurrent)
	r.calib[1] = calibrate()
}

// setup runs set-up setupReps times and keeps each one's duration;
// last is true on the final repetition, whose state the timed window
// uses.
func (r *run) setup(once func(last bool) error) error {
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := once(i == setupReps-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t))
	}
	return nil
}

// traced reports whether job i of the list is traced: every other job
// in a traced run, so traced and untraced jobs of each class alternate
// under the same host conditions and their gap is the tracing overhead.
func (r *run) traced(i int) bool { return r.trace && i%2 == 0 }

// check compares a job's Series and ISeries with its reference bit for
// bit, then drops them: the run keeps only digests, so a long list does
// not grow the benchmark's own heap.
func (r *run) check(o *outcome) {
	if o.err != nil {
		return
	}
	if o.res == nil {
		o.err = fmt.Errorf("no result")
		return
	}
	if h := o.job.spec.Hash(); o.res.Hash != h {
		o.err = fmt.Errorf("result hash %s, want %s", o.res.Hash, h)
		return
	}
	got := digest(o.res)
	o.res.Series, o.res.ISeries = nil, nil
	ref, ok := r.refs[o.job.id]
	if o.job.repeatOf >= 0 {
		ref, ok = r.results[o.job.repeatOf], true // the run the hit was cached from
	}
	switch {
	case !ok || ref.sum == [32]byte{}:
		o.err = fmt.Errorf("no reference for job %d", o.job.id)
	case got != ref:
		o.err = fmt.Errorf("series differ from the reference (%d/%d values, reference %d/%d)",
			got.n, got.ni, ref.n, ref.ni)
	default:
		r.results[o.job.id] = got
	}
}

// seriesDigest identifies a result's Series and ISeries by their exact
// bits: equal digests mean Float64bits-equal Series.
type seriesDigest struct {
	n, ni int
	sum   [32]byte
}

func digest(res *jobspec.Result) seriesDigest {
	b := make([]byte, 0, 8*(len(res.Series)+len(res.ISeries)))
	for _, v := range res.Series {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range res.ISeries {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return seriesDigest{n: len(res.Series), ni: len(res.ISeries), sum: sha256.Sum256(b)}
}

// report prints the summary lines and the final JSON object, and
// returns the exit code: 1 when any job failed or mismatched.
func (r *run) report() int {
	n := len(r.outs)
	var failed int
	lat := make([]float64, n)
	classes := make([]string, n)
	for i, o := range r.outs {
		lat[i] = ms(o.lat)
		classes[i] = o.job.class
		if o.err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): %v\n", o.job.id, o.job.class, o.err)
			}
		}
	}
	failShare := float64(failed) / float64(n)
	fmt.Printf("# host.calib_ms before=%.3f after=%.3f\n", ms(r.calib[0]), ms(r.calib[1]))
	fmt.Printf("# jobs=%d failed=%d fail_share=%g wall_s=%.3f\n", n, failed, failShare, r.wall.Seconds())
	for _, c := range r.w.classes {
		var xs []float64
		for i := range r.outs {
			if classes[i] == c {
				xs = append(xs, lat[i])
			}
		}
		fmt.Printf("# class %-8s jobs=%-4d p50_ms=%.3f\n", c, len(xs), median(xs))
	}
	p50, err50 := percentile(lat, 50)
	p90, err90 := percentile(lat, 90)
	if err50 != nil || err90 != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v %v\n", err50, err90)
		return 1
	}
	sorted := latencyOrderedClasses(classes, lat)
	for _, p := range []float64{50, 90} {
		if err := classBoundaryGuard(sorted, p, guardMargin(n)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warning: measured latencies: %v\n", err)
		}
	}

	setup := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setup[i] = d.Seconds()
	}
	var metrics map[string]metric
	if !r.trace {
		vals := map[string]float64{
			"setup_s":        median(setup),
			"jobs_per_s":     float64(n) / r.wall.Seconds(),
			"job_ms_p50":     p50,
			"job_ms_p90":     p90,
			"cpu_ms_per_job": ms(r.cpu) / float64(n),
			"peak_rss_mb":    float64(r.peakRSS) / (1 << 20),
			"ok_share":       1 - failShare,
		}
		metrics = map[string]metric{}
		for _, m := range endToEnd {
			metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		metrics = r.layerMetrics()
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-36s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": n,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// calibrate times a fixed integer loop: a drift probe that moves with
// the host, never with the program.
func calibrate() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t)
	if x == 0 {
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return d
}
