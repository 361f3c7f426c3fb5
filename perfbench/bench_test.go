package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"trail/internal/osint"
)

func TestRankIndexAndBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		idx    int
		beyond int
	}{
		{100, 50, 49, 50},
		{100, 90, 89, 10},
		{100, 99, 98, 1},
		{1100, 99, 1088, 11},
		{448, 97.5, 436, 11},
		{120, 90, 107, 12},
		{1, 99, 0, 0},
	}
	for _, c := range cases {
		if got := rankIndex(c.n, c.q); got != c.idx {
			t.Errorf("rankIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.idx)
		}
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: tail must sort
		}
		return out
	}
	// 1100 samples: p99 is the 1089th value with 11 above it.
	if v, ok := tail(xs(1100), 99); !ok || v != 1089 {
		t.Errorf("tail(1100, p99) = %v, %v; want 1089, true", v, ok)
	}
	// 500 samples leave only 5 above p99: report the maximum instead.
	if v, ok := tail(xs(500), 99); ok || v != 500 {
		t.Errorf("tail(500, p99) = %v, %v; want the max 500, false", v, ok)
	}
	if v, ok := tail(xs(2), 100); ok || v != 2 {
		t.Errorf("tail of two samples = %v, %v; want the max", v, ok)
	}
	if m := median(xs(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	if m := median(xs(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
}

// The fixed tail percentiles keep at least ten samples beyond them at
// the default rates over a 30 s window.
func TestDefaultTailsHaveTenBeyond(t *testing.T) {
	p := defaultParams()
	const window = 30
	events := int(p.streamRate*window) / publishEvery * publishEvery
	for _, c := range []struct {
		name string
		n    int
		q    float64
	}{
		{"serve-zipf latency", int(0.95 * p.serveRate * window), p.serveTail},
		{"stream-mixed reads", int(p.readRate * window), p.readTail},
		{"stream-mixed freshness", events, p.freshTail},
	} {
		if got := beyond(c.n, c.q); got < minBeyond {
			t.Errorf("%s: p%v of %d samples has %d beyond it, want >= %d", c.name, c.q, c.n, got, minBeyond)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 80, 30*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 80, 30*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 80, 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 2100 || n > 2700 {
		t.Errorf("80/s over 30 s gave %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 30*time.Second {
			t.Fatalf("arrival %d at %s out of order or past the window", i, a[i])
		}
	}
}

func TestZipfStreamIsSeeded(t *testing.T) {
	a := zipfStream(rand.New(rand.NewSource(3)), 1.1, 500, 5000)
	b := zipfStream(rand.New(rand.NewSource(3)), 1.1, 500, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different key streams")
	}
	count := make([]int, 500)
	for _, k := range a {
		if k < 0 || k >= 500 {
			t.Fatalf("key index %d outside the universe", k)
		}
		count[k]++
	}
	if count[0] <= count[1] || count[1] <= count[10] {
		t.Errorf("not zipf-shaped: counts %d, %d, %d for ranks 0, 1, 10", count[0], count[1], count[10])
	}
}

func TestFixedSchedule(t *testing.T) {
	got := fixedSchedule(4, 3)
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fixedSchedule(4, 3) = %v, want %v", got, want)
	}
}

func TestFixtureRefusedInsideTimedPhase(t *testing.T) {
	b := &bench{}
	done := b.timed("window")
	if err := b.fixture("late", func() error { return nil }); err == nil {
		t.Fatal("a fixture built inside a timed phase was accepted")
	}
	done()
	if err := b.fixture("early", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// tinyParams shrinks every workload to a few seconds on the test world.
func tinyParams(seed int64) params {
	p := defaultParams()
	p.world = osint.TestConfig()
	p.world.Seed = seed
	p.batchMonths = 6
	p.epochs = 1
	p.gnnFloor, p.lpFloor = 0, 0
	p.setupReps = 2
	p.serveRate = 20
	p.reloadEvery = 500 * time.Millisecond
	p.baseMonths = 4
	p.streamRate = 40
	p.readRate = 4
	return p
}

// Every workload runs end to end at test size, passes its correctness
// checks, reports every metric, and builds all its fixtures before its
// first timed phase.
func TestWorkloadsBuildFixturesBeforeTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			b := &bench{
				workload: name,
				seed:     5,
				window:   time.Second,
				p:        tinyParams(5),
				dir:      t.TempDir(),
				out:      io.Discard,
				e2e:      map[string]float64{},
				layer:    map[string]float64{},
			}
			if traced {
				b.tr = newTracer()
			}
			if err := run(b); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			timed := false
			for _, ph := range b.phases {
				timed = timed || strings.HasPrefix(ph, "timed:")
				if timed && strings.HasPrefix(ph, "fixture:") {
					t.Errorf("%s: %s comes after a timed phase: %v", name, ph, b.phases)
				}
			}
			if !timed {
				t.Errorf("%s: no timed phase", name)
			}
			for _, c := range b.checks {
				if !c.ok {
					t.Errorf("%s: check %s failed: %s", name, c.name, c.detail)
				}
			}
			if b.attempted == 0 || b.failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", name, b.attempted, b.failed)
			}
			for metric := range endToEnd {
				if v, ok := b.e2e[metric]; !ok || !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v", name, metric, v)
				}
			}
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	for name := range workloads {
		if !names[name] {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(names), len(workloads))
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got := units(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program %v", got, endToEnd)
	}
	if got := units(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program %v", got, perLayer)
	}
}

func TestSpeedIsMedianOfTheInterval(t *testing.T) {
	var nilCal *calibrator
	if s := nilCal.speed(time.Time{}, time.Now()); s != 1 {
		t.Errorf("nil calibrator speed %v, want 1", s)
	}
	t0 := time.Unix(1000, 0)
	c := &calibrator{}
	for i, f := range []float64{1, 2, 2, 0.5, 1} { // kernel time in calRefs
		c.at = append(c.at, t0.Add(time.Duration(i)*time.Second))
		c.cpu = append(c.cpu, time.Duration(f*float64(calRef)))
	}
	// In seconds 0-2 the median kernel ran at half the reference speed.
	if s := c.speed(t0, t0.Add(2*time.Second)); s != 0.5 {
		t.Errorf("speed over the slow seconds %v, want 0.5", s)
	}
	if s := c.speed(t0.Add(3*time.Second), t0.Add(3*time.Second)); s != 2 {
		t.Errorf("speed at the fast second %v, want 2", s)
	}
	// No sample in the interval: the whole run's median, one calRef.
	if s := c.speed(t0.Add(time.Hour), t0.Add(2*time.Hour)); s != 1 {
		t.Errorf("speed with no sample in the interval %v, want the run's 1", s)
	}
}

func TestCalibratorSamplesUntilClosed(t *testing.T) {
	c := startCalibrator()
	time.Sleep(5 * calEvery)
	c.close()
	c.mu.Lock()
	n := len(c.cpu)
	c.mu.Unlock()
	if n < 2 {
		t.Fatalf("%d kernel runs in %s", n, 5*calEvery)
	}
	for _, d := range c.cpu {
		if d <= 0 {
			t.Fatalf("kernel thread CPU time %s", d)
		}
	}
	if s := c.speed(time.Time{}, time.Now()); !(s > 0) {
		t.Errorf("speed %v", s)
	}
}
