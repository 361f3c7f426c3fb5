package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/labelprop"
	"trail/internal/osint"
)

// stageSumTolerance bounds the share of a batch job that its named
// stages may leave unattributed.
const stageSumTolerance = 0.01

// split is the held-out protocol of a batch job: a seeded 80/20 split of
// the TKG's events, the training labels visible to both attributors.
type split struct {
	events  []graph.NodeID
	train   []graph.NodeID
	test    []graph.NodeID
	truth   []int
	visible map[graph.NodeID]int
}

func newSplit(tkg *core.TKG, seed int64) split {
	events := tkg.EventNodes()
	s := split{events: events, visible: map[graph.NodeID]int{}}
	perm := rand.New(rand.NewSource(seed)).Perm(len(events))
	cut := len(events) * 4 / 5
	for i, j := range perm {
		ev := events[j]
		label := tkg.G.Node(ev).Label
		if i < cut {
			s.train = append(s.train, ev)
			s.visible[ev] = label
		} else {
			s.test = append(s.test, ev)
			s.truth = append(s.truth, label)
		}
	}
	return s
}

// jobResult is one batch job: its stage timings, its answers, and the
// events its TKG held (which must match the split's).
type jobResult struct {
	start, trainedAt, end time.Time
	stages                []time.Duration
	lp, gnn               []int
	events                []graph.NodeID
}

// batchJob builds the TKG and CSR, trains encoders and GraphSAGE, and
// evaluates LP-4L and the GNN on the held-out events. Each stage times
// only its call into the program, so the job's remainder is what no
// stage accounts for.
func batchJob(b *bench, w *osint.World, pulses []osint.Pulse, sp split, classes int, op int64) (jobResult, error) {
	r := jobResult{start: time.Now()}
	root := b.tr.begin("batch.job", 0, op)
	defer b.tr.end(root)
	stage := func(name string, call func(span int) error) error {
		took, err := b.stage(name, root, op, call)
		r.stages = append(r.stages, took)
		return err
	}

	tkg, built, err := buildTKG(b, w, pulses, root, op)
	if err != nil {
		return r, err
	}
	r.stages = append(r.stages, built...)
	var set *gnn.EncoderSet
	if err := stage("gnn.encoders", func(int) (err error) {
		set, err = gnn.TrainEncoders(tkg.G, tkg.Features, gnn.DefaultAEConfig())
		return err
	}); err != nil {
		return r, err
	}
	var in gnn.Input
	stage("gnn.input", func(int) error {
		in = gnn.BuildInput(tkg.G, tkg.Features, set, classes)
		return nil
	})
	var model *gnn.Model
	if err := stage("gnn.train", func(span int) (err error) {
		model, err = trainGNN(b, in, sp.train, gnnConfig(set.Config.Encoding, b.p.epochs, b.seed), span, op)
		return err
	}); err != nil {
		return r, err
	}
	r.trainedAt = time.Now()

	stage("labelprop.attribute", func(int) error {
		r.lp = labelprop.AttributeCSR(tkg.G.CSR(), sp.visible, sp.test, classes, 4)
		return nil
	})
	stage("gnn.predict", func(int) error {
		r.gnn = model.Predict(in, sp.visible, sp.test)
		return nil
	})
	r.end = time.Now()
	r.events = tkg.EventNodes()
	return r, nil
}

func runBatch(b *bench) error {
	var w *osint.World
	if err := b.fixture("world", func() error {
		w = osint.NewWorld(b.p.world)
		return nil
	}); err != nil {
		return err
	}
	pulses := w.PulsesInMonths(0, b.p.batchMonths)
	classes := len(w.Resolver().Names())

	// Set-up: the TKG build plus its first CSR.
	var tkg *core.TKG
	if _, err := b.setup(func(i int) error {
		tkg = nil
		var err error
		tkg, _, err = buildTKG(b, w, pulses, 0, int64(-1-i))
		return err
	}); err != nil {
		return err
	}
	b.e2e["heap_live_mb"] = liveHeapMB()
	b.logf("batch: %d nodes, %d edges, %d events", tkg.G.NumNodes(), tkg.G.NumEdges(), len(tkg.EventNodes()))

	// The reference answers come from the set-up TKG, outside any job.
	sp := newSplit(tkg, b.seed)
	lpRef := digest(labelprop.AttributeCSR(tkg.G.CSR(), sp.visible, sp.test, classes, 4))
	tkg = nil

	var jobs []jobResult
	start := time.Now()
	for op := int64(0); ; op++ {
		done := b.timed("job")
		r, err := batchJob(b, w, pulses, sp, classes, op)
		done()
		b.attempted++
		if err != nil {
			b.failed++
			b.logf("batch: job %d failed: %v", op, err)
		} else {
			jobs = append(jobs, r)
		}
		// At least two jobs; then another only if it should end inside
		// the window.
		if el := time.Since(start); op >= 1 && el+el/time.Duration(op+1) > b.window {
			break
		}
	}

	// Latency is the whole job, what a batch user waits for; freshness
	// is job start until the model is trained, when new events become
	// attributable. Each is scaled by the host speed meanwhile.
	var trained, jobMS, rawTrained, rawJob []float64
	for i, r := range jobs {
		t, total := r.trainedAt.Sub(r.start), r.end.Sub(r.start)
		rawTrained, rawJob = append(rawTrained, ms(t)), append(rawJob, ms(total))
		trained = append(trained, ms(t)*b.cal.speed(r.start, r.trainedAt))
		jobMS = append(jobMS, ms(total)*b.cal.speed(r.start, r.end))
		var sum time.Duration
		for _, d := range r.stages {
			sum += d
		}
		rest := total - sum
		share := float64(rest) / float64(total)
		b.logf("batch: job %d took %.3f s: stages %v, unattributed %s (%.4f%%)", i, total.Seconds(), r.stages, rest, 100*share)
		b.check(fmt.Sprintf("batch.stage_sum.job%d", i), share <= stageSumTolerance && share >= 0,
			"stages sum to the job within %.0f%%: unattributed %s of %s", 100*stageSumTolerance, rest, total)
		b.layer["job.unattributed_pct"] = 100 * share

		b.check(fmt.Sprintf("batch.events.job%d", i), sameIDs(r.events, sp.events), "job TKG holds the set-up TKG's %d events in order", len(sp.events))
		lp := digest(r.lp)
		b.check(fmt.Sprintf("batch.lp4_digest.job%d", i), lp == lpRef, "LP-4L prediction digest %s, reference %s", lp, lpRef)
		lpAcc, gnnAcc := accuracy(sp.truth, r.lp), accuracy(sp.truth, r.gnn)
		b.check(fmt.Sprintf("batch.lp4_accuracy.job%d", i), lpAcc >= b.p.lpFloor, "LP-4L held-out accuracy %.3f, floor %.2f", lpAcc, b.p.lpFloor)
		b.check(fmt.Sprintf("batch.gnn_accuracy.job%d", i), gnnAcc >= b.p.gnnFloor, "GNN held-out accuracy %.3f, floor %.2f (%d epochs)", gnnAcc, b.p.gnnFloor, b.p.epochs)
	}
	if len(jobs) > 0 {
		// Fewer than 11 jobs: the tail is the slowest one.
		b.setTimings("freshness_p50_ms", "freshness_tail_ms", 100, rawTrained, trained)
		b.setTimings("latency_p50_ms", "latency_tail_ms", 100, rawJob, jobMS)
	}
	layerFromSpans(b)
	return nil
}

// digest is an order-sensitive hash of a prediction vector.
func digest(pred []int) string {
	h := fnv.New64a()
	for _, p := range pred {
		fmt.Fprintf(h, "%d,", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func accuracy(truth, pred []int) float64 {
	if len(truth) == 0 || len(truth) != len(pred) {
		return 0
	}
	hit := 0
	for i := range truth {
		if truth[i] == pred[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

func sameIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
