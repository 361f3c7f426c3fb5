package main

import (
	"bufio"
	"bytes"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"trail/internal/core"
	"trail/internal/gnn"
	"trail/internal/graph"
	"trail/internal/metrics"
	"trail/internal/osint"
	"trail/internal/serve"
)

// stage runs one call into a layer under a span that also records the
// call's allocations, and returns how long the call took.
func (b *bench) stage(name string, parent int, op int64, call func(span int) error) (time.Duration, error) {
	s := b.tr.beginAlloc(name, parent, op)
	start := time.Now()
	err := call(s)
	took := time.Since(start)
	b.tr.end(s)
	return took, err
}

// buildTKG merges pulses into a fresh TKG and packs its first CSR, the
// set-up of the batch path, and returns how long each of the two took.
func buildTKG(b *bench, w *osint.World, pulses []osint.Pulse, parent int, op int64) (*core.TKG, []time.Duration, error) {
	var tkg *core.TKG
	build, err := b.stage("core.build", parent, op, func(int) error {
		tkg = core.NewTKG(w, w.Resolver(), core.DefaultBuildConfig())
		_, err := tkg.Build(pulses)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	csr, _ := b.stage("graph.csr", parent, op, func(int) error {
		tkg.G.CSR()
		return nil
	})
	return tkg, []time.Duration{build, csr}, nil
}

// gnnConfig is the `trail train` default GraphSAGE shape.
func gnnConfig(encoding, epochs int, seed int64) gnn.Config {
	return gnn.Config{Layers: 2, Hidden: 64, Encoding: encoding, LR: 1e-2, Epochs: epochs, Seed: seed}
}

// trainGNN trains GraphSAGE on the given events; the traced run records
// one span per epoch under parent.
func trainGNN(b *bench, in gnn.Input, events []graph.NodeID, cfg gnn.Config, parent int, op int64) (*gnn.Model, error) {
	var opts gnn.TrainOpts
	epoch := b.tr.begin("gnn.train_epoch", parent, op)
	if b.tr != nil {
		opts.Checkpoint = func(st *gnn.TrainState) error {
			b.tr.end(epoch)
			epoch = 0
			if st.Epoch < cfg.Epochs {
				epoch = b.tr.begin("gnn.train_epoch", parent, op)
			}
			return nil
		}
	}
	model, err := gnn.TrainCtx(in, events, cfg, opts)
	b.tr.end(epoch)
	return model, err
}

// writeCheckpoint writes what `trail train -dir` writes — tkg.ck,
// encoders.ck and model.ck — for a model trained for only a few epochs.
func writeCheckpoint(b *bench, dir string, tkg *core.TKG, classes int) error {
	if err := tkg.Save(filepath.Join(dir, serve.TKGFile)); err != nil {
		return err
	}
	ae := gnn.DefaultAEConfig()
	ae.Epochs = b.p.fixtureAEEpochs
	var set *gnn.EncoderSet
	if _, err := b.stage("gnn.encoders", 0, 0, func(int) (err error) {
		set, err = gnn.TrainEncoders(tkg.G, tkg.Features, ae)
		return err
	}); err != nil {
		return err
	}
	if err := gnn.SaveEncoders(filepath.Join(dir, serve.EncodersFile), set); err != nil {
		return err
	}
	var in gnn.Input
	b.stage("gnn.input", 0, 0, func(int) error {
		in = gnn.BuildInput(tkg.G, tkg.Features, set, classes)
		return nil
	})
	var model *gnn.Model
	if _, err := b.stage("gnn.train", 0, 0, func(span int) (err error) {
		model, err = trainGNN(b, in, tkg.EventNodes(), gnnConfig(ae.Encoding, b.p.fixtureEpochs, b.seed), span, 0)
		return err
	}); err != nil {
		return err
	}
	return gnn.SaveModel(filepath.Join(dir, serve.ModelFile), model)
}

// scrape reads counter and histogram totals from a registry through its
// Prometheus text rendering, the same view /metrics gives an operator.
// Labelled series are summed per family; histogram families appear as
// <name>_sum and <name>_count.
func scrape(reg *metrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WriteTo(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasSuffix(name, "_bucket") || strings.Contains(name, "_bucket{") {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// histMean is a histogram family's mean observation.
func histMean(m map[string]float64, family string) float64 {
	if n := m[family+"_count"]; n > 0 {
		return m[family+"_sum"] / n
	}
	return 0
}

// layerFromSpans fills the per-layer timings every workload shares: the
// build and training stages that batch-train times in each job and the
// other workloads run once while building their fixtures.
func layerFromSpans(b *bench) {
	if b.tr == nil {
		return
	}
	med := func(name string) float64 { return median(msAll(b.tr.durations(name))) }
	set := func(metric string, v float64) {
		if !math.IsNaN(v) { // NaN: no span of that name in this run
			b.layer[metric] = v
		}
	}
	set("core.build_s", med("core.build")/1e3)
	set("graph.csr_ms", med("graph.csr"))
	set("gnn.encoders_s", med("gnn.encoders")/1e3)
	set("gnn.input_ms", med("gnn.input"))
	set("gnn.train_epoch_ms", med("gnn.train_epoch"))
	set("labelprop.attribute_ms", med("labelprop.attribute"))
	set("gnn.predict_ms", med("gnn.predict"))
	set("gnn.forward_ms", med("gnn.forward"))
	for _, stage := range []string{"core.build", "graph.csr", "gnn.encoders", "gnn.input", "gnn.train", "labelprop.attribute", "gnn.predict"} {
		set(stage+".alloc_mb", median(b.tr.allocs(stage))/(1<<20))
	}
}
