package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"trail/internal/graph"
	"trail/internal/osint"
	"trail/internal/serve"
)

// queryKinds are the node kinds the serve-zipf keys are drawn from.
var queryKinds = []graph.NodeKind{graph.KindEvent, graph.KindIP, graph.KindURL, graph.KindDomain}

type queryKey struct {
	kind graph.NodeKind
	key  string
}

func (q queryKey) body(topK int) []byte {
	raw, _ := json.Marshal(map[string]any{"kind": serve.KindName(q.kind), "key": q.key, "top_k": topK})
	return raw
}

// keyUniverse lists every event, IP, URL and domain key of g in a seeded
// order, so the zipf head lands on different keys for different seeds.
func keyUniverse(g *graph.Graph, rng *rand.Rand) []queryKey {
	var keys []queryKey
	for _, k := range queryKinds {
		for _, id := range g.NodesOfKind(k) {
			keys = append(keys, queryKey{kind: k, key: g.Node(id).Key})
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// attribute sends one /v1/attribute request through the handler.
func attribute(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/attribute", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func runServe(b *bench) error {
	var w *osint.World
	dir := filepath.Join(b.dir, "model")
	var universe []queryKey
	var due []time.Duration
	var bodies [][]byte
	if err := b.fixture("checkpoint", func() error {
		w = osint.NewWorld(b.p.world)
		tkg, _, err := buildTKG(b, w, w.PulsesInMonths(0, b.p.batchMonths), 0, 0)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := writeCheckpoint(b, dir, tkg, len(w.Resolver().Names())); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(b.seed))
		universe = keyUniverse(tkg.G, rng)
		due = poissonSchedule(rng, b.p.serveRate, b.window)
		for _, i := range zipfStream(rng, b.p.zipfS, len(universe), len(due)) {
			bodies = append(bodies, universe[i].body(3))
		}
		return nil
	}); err != nil {
		return err
	}

	// Set-up: serve.New over DirLoader.
	loader := serve.DirLoader(dir, w, w.Resolver(), nil)
	var srv *serve.Server
	setups, err := b.setup(func(i int) error {
		if srv != nil {
			srv.Close()
		}
		s := b.tr.begin("serve.load", 0, int64(-1-i))
		defer b.tr.end(s)
		var err error
		srv, err = serve.New(serve.Config{}, loader)
		return err
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	b.e2e["heap_live_mb"] = liveHeapMB()
	b.layer["serve.load_s"] = median(setups)

	// The measured window: Poisson arrivals, each request on its own
	// goroutine, timed from its due time; a checkpoint reload every
	// reloadEvery, timed until the new snapshot is installed.
	done := b.timed("serve")
	h := srv.Handler()
	ends := make([]time.Time, len(due))
	codes := make([]int, len(due))
	var reloads [][2]time.Time
	var reloadErrs int
	alloc0 := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; time.Duration(k)*b.p.reloadEvery < b.window; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * b.p.reloadEvery)))
			s := b.tr.begin("serve.reload", 0, int64(k))
			t0 := time.Now()
			_, err := srv.Reload()
			reloads = append(reloads, [2]time.Time{t0, time.Now()})
			b.tr.end(s)
			if err != nil {
				reloadErrs++
			}
		}
	}()
	lag := openLoop(start, due, func(i int) {
		s := b.tr.begin("serve.request", 0, int64(i))
		rec := attribute(h, bodies[i])
		ends[i] = time.Now()
		codes[i] = rec.Code
		b.tr.end(s)
	})
	wg.Wait()
	allocs := totalAlloc() - alloc0
	done()

	reg := scrape(srv.Registry())
	// Each latency is timed from the request's due time and scaled by
	// the host speed around it; failed requests have none.
	var lat, latScaled []float64
	for i, c := range codes {
		if c != http.StatusOK {
			b.failed++
			continue
		}
		at := start.Add(due[i])
		d := ms(ends[i].Sub(at))
		lat, latScaled = append(lat, d), append(latScaled, d*b.cal.around(at, ends[i]))
	}
	var fresh, freshScaled []float64
	for _, r := range reloads {
		d := ms(r[1].Sub(r[0]))
		fresh, freshScaled = append(fresh, d), append(freshScaled, d*b.cal.around(r[0], r[1]))
	}
	b.attempted += int64(len(due) + len(reloads))
	b.failed += int64(reloadErrs)
	full := beyond(len(lat), b.p.serveTail) >= minBeyond
	b.setTimings("latency_p50_ms", "latency_tail_ms", b.p.serveTail, lat, latScaled)
	b.setTimings("freshness_p50_ms", "freshness_tail_ms", 100, fresh, freshScaled)
	lagMS := msAll(lag)
	b.layer["loadgen.lag_ms"], _ = tail(lagMS, 99)
	b.logf("serve: %d requests at %.0f/s over %s, %d ok; p%.0f has %d samples beyond it (full tail: %v); %d reloads",
		len(due), b.p.serveRate, b.window, len(lat), b.p.serveTail, beyond(len(lat), b.p.serveTail), full, len(reloads))
	b.logf("serve: generator lag p50 %.3f ms, max %.3f ms", median(lagMS), lagMS[len(lagMS)-1])

	infer := histMean(reg, "trail_inference_seconds") * 1e3
	b.layer["serve.infer_ms"] = infer
	b.layer["serve.batch_size"] = histMean(reg, "trail_attribute_batch_size")
	b.layer["serve.queue_ms"] = histMean(reg, "trail_attribute_latency_seconds")*1e3 - infer
	b.layer["serve.alloc_kb_per_req"] = float64(allocs) / float64(len(due)) / 1024

	snap := srv.Snapshot()
	if b.tr != nil {
		id, _ := snap.Lookup(universe[0].kind, universe[0].key)
		out := [][]float64{make([]float64, snap.Classes())}
		for i := 0; i < 5; i++ {
			s := b.tr.begin("gnn.forward", 0, int64(i))
			snap.Attribute([]graph.NodeID{id}, out)
			b.tr.end(s)
		}
	}
	layerFromSpans(b)

	// Correctness: HTTP answers for a fixed key sample, sent at once so
	// they share batches, equal a direct Snapshot.Attribute bit for bit.
	rng := rand.New(rand.NewSource(b.seed + 1))
	var sample []queryKey
	for _, k := range rng.Perm(len(universe))[:min(64, len(universe))] {
		sample = append(sample, universe[k])
	}
	mismatch := compareHTTP(h, snap, sample)
	b.check("serve.http_equals_direct", mismatch == "", "%d keys, top-%d answers from the handler vs Snapshot.Attribute %s", len(sample), snap.Classes(), mismatch)
	return nil
}

// compareHTTP sends every sample key through the handler at once and
// compares each ranked answer with a direct Snapshot.Attribute call. It
// returns "" when all agree bit for bit, else the first difference.
func compareHTTP(h http.Handler, snap *serve.Snapshot, sample []queryKey) string {
	type answer struct {
		Epoch       uint64 `json:"epoch"`
		Predictions []struct {
			APT         string  `json:"apt"`
			Probability float64 `json:"probability"`
		} `json:"predictions"`
	}
	got := make([]*httptest.ResponseRecorder, len(sample))
	var wg sync.WaitGroup
	for i, q := range sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = attribute(h, q.body(snap.Classes()))
		}()
	}
	wg.Wait()
	for i, q := range sample {
		if got[i].Code != http.StatusOK {
			return fmt.Sprintf("%s %q: HTTP %d", serve.KindName(q.kind), q.key, got[i].Code)
		}
		var a answer
		if err := json.Unmarshal(got[i].Body.Bytes(), &a); err != nil {
			return fmt.Sprintf("%s %q: %v", serve.KindName(q.kind), q.key, err)
		}
		if a.Epoch != snap.Epoch {
			return fmt.Sprintf("%s %q: answered from epoch %d, want %d", serve.KindName(q.kind), q.key, a.Epoch, snap.Epoch)
		}
		id, ok := snap.Lookup(q.kind, q.key)
		if !ok {
			return fmt.Sprintf("%s %q: not in the snapshot", serve.KindName(q.kind), q.key)
		}
		probs := [][]float64{make([]float64, snap.Classes())}
		snap.Attribute([]graph.NodeID{id}, probs)
		order := make([]int, len(probs[0]))
		for c := range order {
			order[c] = c
		}
		sort.SliceStable(order, func(x, y int) bool { return probs[0][order[x]] > probs[0][order[y]] })
		if len(a.Predictions) != len(order) {
			return fmt.Sprintf("%s %q: %d predictions, want %d", serve.KindName(q.kind), q.key, len(a.Predictions), len(order))
		}
		for r, c := range order {
			p := a.Predictions[r]
			if p.APT != snap.Names[c] || p.Probability != probs[0][c] {
				return fmt.Sprintf("%s %q rank %d: HTTP %s %v, direct %s %v", serve.KindName(q.kind), q.key, r, p.APT, p.Probability, snap.Names[c], probs[0][c])
			}
		}
	}
	return ""
}
