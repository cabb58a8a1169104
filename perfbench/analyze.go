package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"time"

	"ensdropcatch/internal/core"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/pricing"
)

// analyzeDomains sizes the snapshot: at 20k the load's Reindex is the
// larger part of dataset.Load, the cost the flat-dataset work targets.
const analyzeDomains = 20000

// analyzeBench is ensanalyze -data in process: load a binary snapshot,
// run every paper analysis (uncached Compute* entry points where they
// exist) and render the report. The check is the rendered bytes
// against the report of the generator's in-memory dataset.
type analyzeBench struct {
	o    options
	snap string
	want []byte
}

func newAnalyzeBench(o options, dir string) *analyzeBench {
	if o.domains == 0 {
		o.domains = analyzeDomains
	}
	return &analyzeBench{o: o, snap: filepath.Join(dir, "analyze.bin")}
}

func (a *analyzeBench) setup(ctx context.Context) (map[string]float64, error) {
	a.want = nil
	layers := map[string]float64{}
	res, err := generateWorld(a.o, layers)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.FromWorld(ctx, res, dataset.BuildOptions{Obs: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	if err := ds.SaveSnapshot(a.snap, dataset.WithFormat(dataset.FormatBinary)); err != nil {
		return nil, err
	}
	p, err := computePaper(ctx, ds, nil, map[string]float64{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	render(&buf, p)
	a.want = buf.Bytes()
	return layers, nil
}

func (a *analyzeBench) measure(ctx context.Context, seconds float64, traced bool) (*pass, error) {
	p := &pass{e2e: map[string]float64{}, layers: map[string]float64{}}
	var walls, callLat, callRates []float64
	samples := map[string][]float64{}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds()+walls[len(walls)-1] <= seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		layers := map[string]float64{}
		// Each iteration starts from a collected heap, so the last one's
		// garbage shifts neither its GC cycles nor its peak.
		runtime.GC()
		rctx, root := rec.open(ctx, "analyze", "")
		t0 := time.Now()
		objs0, bytes0 := allocs()
		_, sp := rec.open(rctx, "dataset.load", "")
		tl := time.Now()
		ds, err := dataset.Load(a.snap)
		loadS := time.Since(tl).Seconds()
		sp.end()
		if err != nil {
			return nil, err
		}
		objs1, bytes1 := allocs()
		paperT := time.Now()
		pp, err := computePaper(rctx, ds, rec, layers)
		if err != nil {
			return nil, err
		}
		calls := make([]float64, 0, len(layers))
		for _, d := range layers { // only the core.* calls so far
			calls = append(calls, d)
		}
		paperS := time.Since(paperT).Seconds()
		_, sp = rec.open(rctx, "report.render", "")
		tr := time.Now()
		var buf bytes.Buffer
		render(&buf, pp)
		renderS := time.Since(tr).Seconds()
		sp.end()
		walls = append(walls, time.Since(t0).Seconds())
		root.end()
		p.attempted++

		if !bytes.Equal(buf.Bytes(), a.want) {
			p.failed++
			p.checkErr = fmt.Errorf("iteration %d: report differs from the in-memory dataset's (%d vs %d bytes)", i, buf.Len(), len(a.want))
			return p, nil
		}
		p.output = digest(buf.Bytes())
		callLat = append(callLat, calls...)
		callRates = append(callRates, float64(len(calls))/paperS)
		if !traced {
			continue
		}
		_, sp = rec.open(rctx, "dataset.reindex", "")
		t0 = time.Now()
		ds.Reindex()
		reindexS := time.Since(t0).Seconds()
		sp.end()
		layers["dataset.load_s"] = loadS
		layers["dataset.reindex_s"] = reindexS
		layers["dataset.decode_s"] = loadS - reindexS
		layers["dataset.load_allocs"] = float64(objs1 - objs0)
		layers["dataset.load_alloc_mb"] = float64(bytes1-bytes0) / (1 << 20)
		layers["report.render_s"] = renderS
		layers["report.bytes"] = float64(buf.Len())
		for k, v := range layers {
			samples[k] = append(samples[k], v)
		}
		p.spans = append(p.spans, rec.take()...)
	}
	p.e2e["wall_s"] = median(walls)
	p.e2e["p50_ms"] = median(callLat) * 1e3
	p.e2e["max_rps"] = median(callRates)
	p.primary = p.e2e["wall_s"]
	for k, v := range samples {
		p.layers[k] = median(v)
	}
	return p, nil
}

// computePaper runs NewAnalyzer and every analysis ensanalyze prints,
// one span and one "core.<name>_s" entry in layers per call.
func computePaper(ctx context.Context, ds *dataset.Dataset, rec *recorder, layers map[string]float64) (*paper, error) {
	step := func(name string, f func()) {
		_, sp := rec.open(ctx, "core."+name, "")
		t0 := time.Now()
		f()
		layers["core."+name+"_s"] = time.Since(t0).Seconds()
		sp.end()
	}
	var an *core.Analyzer
	step("new_analyzer", func() { an = core.NewAnalyzer(ds, pricing.NewOracle()) })
	p := &paper{pop: an.Pop}
	var err error
	step("collection_stats", func() { p.stats = an.CollectionStats() })
	step("monthly", func() {
		p.monthly = an.MonthlyEvents()
		p.peakMonth, p.peak = an.PeakMonthlyReregistrations()
	})
	step("delays", func() { p.delays = an.ReregistrationDelays() })
	step("survival", func() { p.survival = an.ComputeCatchSurvival() })
	step("frequency", func() { p.freq = an.ReregFrequency() })
	step("cdf", func() { p.cdf = an.ReregistrantCDF() })
	step("table1", func() { p.table1, err = an.ComputeFeatureComparison() })
	if err != nil {
		return nil, err
	}
	step("resale", func() { p.resale = an.ResaleMarket() })
	step("losses", func() { p.losses = an.ComputeFinancialLosses(core.DefaultLossOptions()) })
	step("hijack", func() { p.hijack = an.HijackableFunds() })
	return p, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
