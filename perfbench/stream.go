package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/ingest"
	"trail/internal/metrics"
	"trail/internal/osint"
	"trail/internal/serve"
)

// publishEvery is the ingest default: a checkpoint cut, and so a
// publish, every 32 events.
const publishEvery = 32

// publishRecord is one snapshot the benchmark's Publish hook installed.
type publishRecord struct {
	watermark uint64
	at        time.Time
}

// streamRig is one ingest pipeline with the server its Publish hook
// feeds.
type streamRig struct {
	p   *ingest.Pipeline
	srv *serve.Server
	reg *metrics.Registry

	mu        sync.Mutex
	published []publishRecord
	pubTimes  []time.Duration
	pubErrs   int
	accepted  []string // keys of accepted events, in sequence order
	readable  []string // event keys a reader may ask for
	pubUpTo   int      // accepted events already checked into readable
	changed   chan struct{}
}

func (r *streamRig) close() {
	r.p.Close()
	r.srv.Close()
}

// openRig opens an ingest pipeline over a fresh directory seeded from
// the base TKG, builds the first snapshot from its state, and starts a
// server on it: the stream-mixed set-up.
func openRig(b *bench, w *osint.World, dir, base string, enc *gnn.EncoderSet, model *gnn.Model, op int64) (*streamRig, time.Duration, error) {
	names := w.Resolver().Names()
	r := &streamRig{reg: metrics.NewRegistry(), changed: make(chan struct{}, 1)}
	var srv atomic.Pointer[serve.Server]
	cfg := ingest.Config{
		Dir:           dir,
		Resolver:      w.Resolver(),
		Services:      osint.NewResilientServices(osint.Infallible(w), osint.DefaultResilienceConfig()),
		Build:         core.DefaultBuildConfig(),
		BasePath:      base,
		Classes:       len(names),
		Layers:        2,
		PublishEvery:  publishEvery,
		FlushInterval: -1,
		Metrics:       r.reg,
		Publish: func(t *core.TKG, wm uint64) {
			s := b.tr.begin("ingest.publish", 0, int64(wm))
			start := time.Now()
			snap, err := serve.NewSnapshot(t.G, t.Features, names, enc, model)
			if err == nil {
				srv.Load().Publish(snap)
			}
			at := time.Now()
			b.tr.end(s)
			r.onPublish(snap, wm, at, at.Sub(start), err)
		},
	}
	s := b.tr.begin("ingest.open", 0, op)
	start := time.Now()
	p, err := ingest.New(cfg)
	open := time.Since(start)
	b.tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = b.tr.begin("serve.first_snapshot", 0, op)
	r.srv, err = serve.New(serve.Config{Registry: r.reg}, func() (*serve.Snapshot, error) {
		clone, _, err := p.State(context.Background())
		if err != nil {
			return nil, err
		}
		return serve.NewSnapshot(clone.G, clone.Features, names, enc, model)
	})
	b.tr.end(s)
	if err != nil {
		p.Close()
		return nil, 0, err
	}
	srv.Store(r.srv)
	r.p = p
	r.readable = r.srv.Snapshot().SampleKeys(graph.KindEvent, 0)
	return r, open, nil
}

func (r *streamRig) onPublish(snap *serve.Snapshot, wm uint64, at time.Time, took time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.pubErrs++
		return
	}
	r.published = append(r.published, publishRecord{watermark: wm, at: at})
	r.pubTimes = append(r.pubTimes, took)
	for ; r.pubUpTo < len(r.accepted) && uint64(r.pubUpTo) < wm; r.pubUpTo++ {
		if _, ok := snap.Lookup(graph.KindEvent, r.accepted[r.pubUpTo]); ok {
			r.readable = append(r.readable, r.accepted[r.pubUpTo])
		}
	}
	select {
	case r.changed <- struct{}{}:
	default:
	}
}

// waitPublished blocks until a snapshot covering seq is installed.
func (r *streamRig) waitPublished(ctx context.Context, seq uint64) error {
	for {
		r.mu.Lock()
		n := len(r.published)
		covered := n > 0 && r.published[n-1].watermark >= seq
		r.mu.Unlock()
		if covered {
			return nil
		}
		select {
		case <-r.changed:
		case <-ctx.Done():
			return fmt.Errorf("no snapshot covering event %d was published: %w", seq, ctx.Err())
		}
	}
}

func runStream(b *bench) error {
	var w *osint.World
	var feed []osint.Pulse
	var enc *gnn.EncoderSet
	var model *gnn.Model
	modelDir := filepath.Join(b.dir, "model")
	base := filepath.Join(modelDir, serve.TKGFile)
	events := int(b.p.streamRate*b.window.Seconds()) / publishEvery * publishEvery
	if err := b.fixture("checkpoint", func() error {
		cfg := b.p.world
		cfg.Months = b.p.baseMonths + int(math.Ceil(1.5*float64(events)/float64(cfg.EventsPerMonth)))
		w = osint.NewWorld(cfg)
		tkg, _, err := buildTKG(b, w, w.PulsesInMonths(0, b.p.baseMonths), 0, 0)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(modelDir, 0o755); err != nil {
			return err
		}
		if err := writeCheckpoint(b, modelDir, tkg, len(w.Resolver().Names())); err != nil {
			return err
		}
		if enc, err = gnn.LoadEncoders(filepath.Join(modelDir, serve.EncodersFile)); err != nil {
			return err
		}
		if model, err = gnn.LoadModel(filepath.Join(modelDir, serve.ModelFile)); err != nil {
			return err
		}
		feed = w.PulsesInMonths(b.p.baseMonths, cfg.Months)
		if len(feed) < events {
			return fmt.Errorf("world holds %d events past the base, want %d", len(feed), events)
		}
		feed = feed[:events]
		return nil
	}); err != nil {
		return err
	}

	// Set-up: ingest.New plus the first snapshot.
	var opens []float64
	var rig *streamRig
	if _, err := b.setup(func(i int) error {
		if rig != nil {
			rig.close()
		}
		var open time.Duration
		var err error
		rig, open, err = openRig(b, w, filepath.Join(b.dir, fmt.Sprintf("ingest-%d", i)), base, enc, model, int64(-1-i))
		opens = append(opens, open.Seconds())
		return err
	}); err != nil {
		return err
	}
	defer rig.close()
	b.e2e["heap_live_mb"] = liveHeapMB()
	b.layer["ingest.open_s"] = median(opens)

	// The measured window: the feeder submits events on a fixed
	// schedule while the reader queries published events beside it.
	done := b.timed("stream")
	ctx := context.Background()
	h := rig.srv.Handler()
	feedDue := fixedSchedule(b.p.streamRate, len(feed))
	readDue := fixedSchedule(b.p.readRate, int(b.p.readRate*b.window.Seconds()))
	dueOfSeq := make([]time.Duration, 0, len(feed))
	feedLag := make([]time.Duration, len(feed))
	var submits []time.Duration
	var shed, submitErrs int
	readRng := rand.New(rand.NewSource(b.seed + 2))
	readEnds := make([]time.Time, len(readDue))
	readCodes := make([]int, len(readDue))

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, d := range feedDue {
			if wait := time.Until(start.Add(d)); wait > 0 {
				time.Sleep(wait)
			}
			feedLag[i] = max(time.Since(start.Add(d)), 0)
			s := b.tr.begin("ingest.submit", 0, int64(i))
			t0 := time.Now()
			err := rig.p.Submit(ctx, feed[i])
			submits = append(submits, time.Since(t0))
			b.tr.end(s)
			switch {
			case err == nil:
				rig.mu.Lock()
				rig.accepted = append(rig.accepted, feed[i].ID)
				rig.mu.Unlock()
				dueOfSeq = append(dueOfSeq, d)
			case errors.Is(err, ingest.ErrOverloaded):
				shed++
			default:
				submitErrs++
			}
		}
	}()
	readLag := openLoop(start, readDue, func(i int) {
		rig.mu.Lock()
		key := rig.readable[readRng.Intn(len(rig.readable))]
		rig.mu.Unlock()
		s := b.tr.begin("serve.request", 0, int64(i))
		rec := attribute(h, queryKey{kind: graph.KindEvent, key: key}.body(3))
		readEnds[i] = time.Now()
		readCodes[i] = rec.Code
		b.tr.end(s)
	})
	wg.Wait()
	if err := rig.p.Barrier(ctx); err != nil {
		return err
	}
	last := rig.p.DurableSeq()
	if rig.p.Watermark() < last {
		// Only when an event was shed does the feed end off a cut.
		if err := rig.p.Cut(ctx); err != nil {
			return err
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	err := rig.waitPublished(wctx, last)
	cancel()
	done()
	if err != nil {
		return err
	}

	// Freshness: from an event's due time until the first installed
	// snapshot whose watermark covers it. It splits at the due time of
	// the event that completed the snapshot's cut: the wait before it is
	// the feed schedule, which host speed does not stretch; the
	// processing after it (apply, cut, publish) is scaled by the host
	// speed meanwhile.
	rig.mu.Lock()
	var fresh, freshScaled []float64
	pub := 0
	for seq := 1; seq <= len(dueOfSeq); seq++ {
		for rig.published[pub].watermark < uint64(seq) {
			pub++
		}
		at, trigger := rig.published[pub].at, start.Add(dueOfSeq[rig.published[pub].watermark-1])
		wait, work := ms(trigger.Sub(start.Add(dueOfSeq[seq-1]))), ms(at.Sub(trigger))
		fresh = append(fresh, wait+work)
		freshScaled = append(freshScaled, wait+work*b.cal.around(trigger, at))
	}
	pubTimes := msAll(rig.pubTimes)
	pubErrs := rig.pubErrs
	rig.mu.Unlock()

	var reads, readsScaled []float64
	for i, c := range readCodes {
		if c != http.StatusOK {
			b.failed++
			continue
		}
		at := start.Add(readDue[i])
		d := ms(readEnds[i].Sub(at))
		reads, readsScaled = append(reads, d), append(readsScaled, d*b.cal.around(at, readEnds[i]))
	}
	st := rig.p.Stats()
	reg := scrape(rig.reg)
	b.attempted += int64(len(feed) + len(readDue))
	b.failed += int64(shed + submitErrs + pubErrs + int(st.Failed) + int(reg["trail_ingest_wal_errors_total"]))
	b.logf("stream: samples beyond the tail: freshness p%.1f %d, reads p%.0f %d",
		b.p.freshTail, beyond(len(fresh), b.p.freshTail), b.p.readTail, beyond(len(reads), b.p.readTail))
	b.setTimings("latency_p50_ms", "latency_tail_ms", b.p.readTail, reads, readsScaled)
	b.setTimings("freshness_p50_ms", "freshness_tail_ms", b.p.freshTail, fresh, freshScaled)
	b.logf("stream: %d events at %.0f/s (%d shed, %d skipped by tag resolution), %d reads at %.0f/s; %d publishes",
		len(feed), b.p.streamRate, shed, st.Skipped, len(readDue), b.p.readRate, len(pubTimes))
	feedLagMS, readLagMS := msAll(feedLag), msAll(readLag)
	b.logf("stream: generator lag p99 feeder %.3f ms, reader %.3f ms", percentile(feedLagMS, 99), percentile(readLagMS, 99))

	var submitSum time.Duration
	for _, d := range submits {
		submitSum += d
	}
	b.layer["ingest.submit_ms"] = ms(submitSum) / float64(len(submits))
	b.layer["ingest.publish_ms"] = median(pubTimes)
	b.layer["ingest.cut_ms"] = histMean(reg, "trail_ingest_cut_seconds") * 1e3
	if n := reg["trail_ingest_publishes_total"] + reg["trail_ingest_publish_skipped_total"]; n > 0 {
		b.layer["ingest.publish_skip_ratio"] = reg["trail_ingest_publish_skipped_total"] / n
	}
	if n := st.CSRPatchApplied + st.CSRPatchFallback; n > 0 {
		b.layer["graph.csr_patch_ratio"] = float64(st.CSRPatchApplied) / float64(n)
	}
	b.layer["ckpt.wal_bytes_per_event"] = float64(st.WALBytes) / float64(len(dueOfSeq))
	b.layer["ingest.skipped_events"] = float64(st.Skipped)
	b.layer["serve.batch_size"] = histMean(reg, "trail_attribute_batch_size")
	b.layer["serve.infer_ms"] = histMean(reg, "trail_inference_seconds") * 1e3
	b.layer["loadgen.lag_ms"] = percentile(feedLagMS, 99)
	layerFromSpans(b)

	streamChecks(b, rig, st, len(dueOfSeq), enc, model)
	return nil
}

// streamChecks compares the final served snapshot with the feed and
// with a snapshot built from the pipeline's own state.
func streamChecks(b *bench, rig *streamRig, st ingest.Stats, accepted int, enc *gnn.EncoderSet, model *gnn.Model) {
	snap := rig.srv.Snapshot()
	rig.mu.Lock()
	keys := append([]string(nil), rig.accepted...)
	rig.mu.Unlock()
	resolved := 0
	for _, k := range keys {
		if _, ok := snap.Lookup(graph.KindEvent, k); ok {
			resolved++
		}
	}
	b.check("stream.applied_resolve", uint64(resolved) == st.Applied && st.Applied+st.Skipped+st.Duplicates == uint64(accepted),
		"%d of %d accepted events resolve in the final snapshot; applied %d, skipped %d, duplicates %d",
		resolved, accepted, st.Applied, st.Skipped, st.Duplicates)
	want := uint64((accepted + publishEvery - 1) / publishEvery)
	b.check("stream.checkpoints", st.Checkpoints == want, "%d checkpoints for %d events cut every %d, want %d",
		st.Checkpoints, accepted, publishEvery, want)

	clone, wm, err := rig.p.State(context.Background())
	if err != nil {
		b.check("stream.state_equals_served", false, "Pipeline.State: %v", err)
		return
	}
	ref, err := serve.NewSnapshot(clone.G, clone.Features, snap.Names, enc, model)
	if err != nil {
		b.check("stream.state_equals_served", false, "snapshot from Pipeline.State: %v", err)
		return
	}
	var ids, refIDs []graph.NodeID
	for _, k := range keys[max(0, len(keys)-64):] {
		id, ok1 := snap.Lookup(graph.KindEvent, k)
		rid, ok2 := ref.Lookup(graph.KindEvent, k)
		if ok1 && ok2 {
			ids, refIDs = append(ids, id), append(refIDs, rid)
		}
	}
	got, exp := rows(len(ids), snap.Classes()), rows(len(ids), ref.Classes())
	snap.Attribute(ids, got)
	ref.Attribute(refIDs, exp)
	diff := ""
	for i := range got {
		for c := range got[i] {
			if got[i][c] != exp[i][c] && diff == "" {
				diff = fmt.Sprintf(": event %d class %d served %v, state %v", ids[i], c, got[i][c], exp[i][c])
			}
		}
	}
	b.check("stream.state_equals_served", diff == "" && wm == st.Watermark && len(ids) > 0,
		"%d of the last events answered bit for bit alike by the served snapshot and one built from Pipeline.State at watermark %d%s",
		len(ids), wm, diff)
}

func rows(n, classes int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, classes)
	}
	return out
}
