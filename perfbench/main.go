// Command perfbench is the repository's end-to-end benchmark. It drives
// TRAIL's three user paths in process, through the packages' public
// functions, on a synthetic world generated from the workload seed:
//
//	batch-train   build the TKG and CSR, train encoders and GraphSAGE,
//	              evaluate LP-4L and the GNN on held-out events
//	serve-zipf    open-loop Poisson attribution queries over zipf keys,
//	              answered through serve.Server's HTTP handler
//	stream-mixed  an ingest.Pipeline fed at a fixed rate, publishing
//	              serving snapshots, beside a low-rate reader
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run records spans around every
// call into a layer, writes them to .bench_build/traces/, and reports
// the per-layer metrics instead. Lines before it are the human-readable
// report: machine fingerprint, every metric with its unit, and each
// correctness check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"trail/internal/osint"
)

// endToEnd and perLayer list every metric the benchmark reports, with
// its unit; BENCHMARK.json names the same ones (bench_test.go checks).
var endToEnd = map[string]string{
	"setup_s":           "s",
	"heap_live_mb":      "MB",
	"latency_p50_ms":    "ms",
	"latency_tail_ms":   "ms",
	"freshness_p50_ms":  "ms",
	"freshness_tail_ms": "ms",
}

var perLayer = map[string]string{
	// batch-train (and the fixture builds of the other workloads)
	"core.build_s":                 "s",
	"graph.csr_ms":                 "ms",
	"gnn.encoders_s":               "s",
	"gnn.input_ms":                 "ms",
	"gnn.train_epoch_ms":           "ms",
	"labelprop.attribute_ms":       "ms",
	"gnn.predict_ms":               "ms",
	"core.build.alloc_mb":          "MB",
	"graph.csr.alloc_mb":           "MB",
	"gnn.encoders.alloc_mb":        "MB",
	"gnn.input.alloc_mb":           "MB",
	"gnn.train.alloc_mb":           "MB",
	"labelprop.attribute.alloc_mb": "MB",
	"gnn.predict.alloc_mb":         "MB",
	"job.unattributed_pct":         "%",
	// serve-zipf
	"serve.load_s":           "s",
	"gnn.forward_ms":         "ms",
	"serve.infer_ms":         "ms",
	"serve.batch_size":       "count",
	"serve.queue_ms":         "ms",
	"serve.alloc_kb_per_req": "KB",
	"loadgen.lag_ms":         "ms",
	// stream-mixed
	"ingest.open_s":             "s",
	"ingest.submit_ms":          "ms",
	"ingest.publish_ms":         "ms",
	"ingest.cut_ms":             "ms",
	"ingest.publish_skip_ratio": "ratio",
	"graph.csr_patch_ratio":     "ratio",
	"ckpt.wal_bytes_per_event":  "B",
	"ingest.skipped_events":     "count",
	// the host and the tracer
	"host.speed":         "ratio",
	"trace.spans":        "count",
	"trace.overhead_pct": "%",
}

// params are the sizes and rates of the workloads. The command line
// fixes the rates and tail percentiles; the tests shrink the rest.
type params struct {
	world osint.WorldConfig

	// batch-train
	batchMonths int     // leading months merged into the batch TKG
	epochs      int     // GraphSAGE epoch budget per job
	gnnFloor    float64 // minimum GNN held-out accuracy
	lpFloor     float64 // minimum LP-4L held-out accuracy

	// fixtures of serve-zipf and stream-mixed: same shapes as `trail
	// train`, fewer epochs (serving cost depends on shape, not epochs)
	fixtureAEEpochs, fixtureEpochs int

	setupReps int // minimum set-ups per run; the median is reported

	serveRate   float64       // serve-zipf requests per second
	reloadEvery time.Duration // serve-zipf checkpoint reload period
	zipfS       float64

	baseMonths int     // stream-mixed: months in the base TKG
	streamRate float64 // stream-mixed events per second
	readRate   float64 // stream-mixed reads per second

	serveTail, readTail, freshTail float64 // fixed tail percentiles
}

func defaultParams() params {
	return params{
		world:           osint.DefaultConfig(),
		batchMonths:     18,
		epochs:          6,
		gnnFloor:        0.2,
		lpFloor:         0.6,
		fixtureAEEpochs: 1,
		fixtureEpochs:   2,
		setupReps:       5,
		serveRate:       80,
		reloadEvery:     3 * time.Second,
		zipfS:           1.1,
		baseMonths:      12,
		streamRate:      15,
		readRate:        6,
		serveTail:       99,
		readTail:        90,
		freshTail:       97.5,
	}
}

// check is one correctness check; a failed check makes the run
// incorrect.
type check struct {
	name   string
	ok     bool
	detail string
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	p        params
	tr       *tracer     // nil in the untraced run
	cal      *calibrator // nil reports every timing unscaled
	dir      string      // this run's scratch directory
	out      io.Writer

	// phases logs fixture builds and timed phases in the order they
	// happen; timing is > 0 inside a timed phase.
	phases []string
	timing int

	e2e, layer        map[string]float64
	checks            []check
	attempted, failed int64
}

// fixture builds an input outside every timed phase.
func (b *bench) fixture(name string, build func() error) error {
	if b.timing > 0 {
		return fmt.Errorf("fixture %s would be built inside a timed phase", name)
	}
	b.phases = append(b.phases, "fixture:"+name)
	if err := build(); err != nil {
		return fmt.Errorf("fixture %s: %w", name, err)
	}
	return nil
}

// timed marks a timed phase; call the returned func when it ends.
func (b *bench) timed(name string) (done func()) {
	b.timing++
	b.phases = append(b.phases, "timed:"+name)
	return func() { b.timing-- }
}

func (b *bench) check(name string, ok bool, format string, args ...any) {
	b.checks = append(b.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// setup times a set-up repeatedly, at least p.setupReps times and for
// at least minSetup, and reports the median as setup_s, scaled to the
// host speed of the whole set-up phase. rep(i) runs the i-th set-up and
// releases what the previous one left. It returns the raw durations.
func (b *bench) setup(rep func(i int) error) ([]float64, error) {
	var took []float64
	start := time.Now()
	for i := 0; i < maxSetupReps && (i < b.p.setupReps || time.Since(start) < minSetup); i++ {
		done := b.timed("setup")
		t0 := time.Now()
		err := rep(i)
		took = append(took, time.Since(t0).Seconds())
		done()
		if err != nil {
			return nil, err
		}
	}
	s := b.cal.speed(start, time.Now())
	raw := median(took)
	b.e2e["setup_s"] = raw * s
	b.logf("raw setup_s %.4f s (%d reps) at host speed %.3f", raw, len(took), s)
	return took, nil
}

const (
	minSetup     = 2 * time.Second
	maxSetupReps = 25
)

// setTimings reports the median and the tail (q-th percentile) of
// CPU-bound timings, each already scaled to the reference host speed;
// the raw figures go to the report.
func (b *bench) setTimings(p50, tailName string, q float64, raw, scaled []float64) {
	b.e2e[p50] = median(scaled)
	b.e2e[tailName], _ = tail(scaled, q)
	rawTail, _ := tail(raw, q)
	b.logf("raw %s %.4f, %s %.4f ms over %d samples", p50, median(raw), tailName, rawTail, len(raw))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// outDir holds fixtures and traces, relative to the repository root;
// run.sh builds the program there too.
const outDir = ".bench_build"

var workloads = map[string]func(*bench) error{
	"batch-train":  runBatch,
	"serve-zipf":   runServe,
	"stream-mixed": runStream,
}

func main() {
	p := defaultParams()
	workload := flag.String("workload", "", "batch-train | serve-zipf | stream-mixed")
	seed := flag.Int64("seed", 1, "workload seed: the synthetic world and every generated input derive from it")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Float64Var(&p.serveRate, "serve-rate", p.serveRate, "serve-zipf Poisson arrival rate (requests/s)")
	flag.Float64Var(&p.streamRate, "stream-rate", p.streamRate, "stream-mixed event feed rate (events/s)")
	flag.Float64Var(&p.readRate, "read-rate", p.readRate, "stream-mixed reader rate (requests/s)")
	flag.Float64Var(&p.serveTail, "serve-tail", p.serveTail, "serve-zipf latency tail percentile")
	flag.Float64Var(&p.readTail, "read-tail", p.readTail, "stream-mixed read latency tail percentile")
	flag.Float64Var(&p.freshTail, "fresh-tail", p.freshTail, "stream-mixed freshness tail percentile")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload batch-train|serve-zipf|stream-mixed, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		p:        p,
		dir:      filepath.Join(outDir, "runs", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		out:      os.Stdout,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	b.p.world.Seed = *seed
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := execute(b, run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and prints its report and result line.
func execute(b *bench, run func(*bench) error) error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)
	fp, _ := json.Marshal(fingerprint(b))
	b.logf("fingerprint %s", fp)

	b.cal = startCalibrator()
	start := time.Now()
	err := run(b)
	b.cal.close()
	if err != nil {
		return err
	}
	b.layer["host.speed"] = b.cal.speed(start, time.Now())
	if b.tr != nil {
		spans := b.tr.count()
		cost := spanCost()
		b.layer["trace.spans"] = float64(spans)
		b.layer["trace.overhead_pct"] = 100 * float64(spans) * float64(cost) / float64(time.Since(start))
		b.logf("trace: %d spans at %s each; traced end-to-end figures follow (compare with an untraced run at the same seed)", spans, cost)
		dir := filepath.Join(outDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", b.workload, b.seed))
		if err := b.tr.writeFile(path); err != nil {
			return err
		}
		b.logf("trace: spans written to %s", path)
	}
	return report(b)
}

// report prints every metric and check, then the result line.
func report(b *bench) error {
	want, got := endToEnd, b.e2e
	if b.tr != nil {
		want, got = perLayer, b.layer
		for name, v := range b.e2e {
			b.logf("traced %-28s %12.4f %s", name, v, endToEnd[name])
		}
	}
	correct := true
	for _, c := range b.checks {
		status := "ok"
		if !c.ok {
			status, correct = "FAILED", false
		}
		b.logf("check %-36s %-6s %s", c.name, status, c.detail)
	}
	metrics := map[string]any{}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := got[name]
		if !ok {
			v = 0 // a layer this workload does not exercise
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.logf("metric %s is not a number", name)
			v, correct = 0, false
		}
		b.logf("metric %-28s %12.4f %s", name, v, want[name])
		metrics[name] = map[string]any{"value": v, "unit": want[name]}
	}
	b.logf("ops attempted=%d failed=%d", b.attempted, b.failed)
	if b.attempted < 1 {
		correct = false
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(b.out, string(line))
	return err
}

// fingerprint names the machine and build a result came from.
func fingerprint(b *bench) map[string]any {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   rev,
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.window.Seconds(),
		"traced":     b.tr != nil,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
