package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

const (
	// crawlDomains sizes the crawled world. Spool-snapshot cost grows
	// faster than the crawl does, so the size fixes how much of wall_s it
	// takes; at 5k it is already the visible gap in the ledger while
	// several crawls still fit one run.
	crawlDomains = 3000
	// crawlWorkers is both the tx and market worker count and the
	// connection cap: a closed loop with no more callers than the
	// 2-core reference box has cores.
	crawlWorkers = 2
)

// crawlBench is the Figure-1 collection: each iteration serves the
// world through a fresh serve.New stack (so every request misses the
// page cache), crawls it with dataset.Build and a ResumeDir, and saves
// a binary snapshot. The check is the crawled dataset's fingerprint
// against dataset.FromWorld on the same world.
type crawlBench struct {
	o     options
	dir   string
	res   *world.Result
	store *subgraph.Store
	want  uint64
}

func newCrawlBench(o options, dir string) *crawlBench {
	if o.domains == 0 {
		o.domains = crawlDomains
	}
	return &crawlBench{o: o, dir: dir}
}

func (c *crawlBench) setup(ctx context.Context) (map[string]float64, error) {
	c.res, c.store = nil, nil
	layers := map[string]float64{}
	res, err := generateWorld(c.o, layers)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	store := subgraph.BuildIndex(res.Chain)
	layers["subgraph.build_index_s"] = time.Since(t0).Seconds()
	ref, err := dataset.FromWorld(ctx, res, dataset.BuildOptions{Obs: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	c.res, c.store, c.want = res, store, ref.Fingerprint()
	return layers, nil
}

// generateWorld makes the seeded world every workload starts from.
func generateWorld(o options, layers map[string]float64) (*world.Result, error) {
	cfg := world.DefaultConfig(o.domains)
	cfg.Seed = o.seed
	t0 := time.Now()
	res, err := world.Generate(cfg)
	if err != nil {
		return nil, err
	}
	layers["world.generate_s"] = time.Since(t0).Seconds()
	return res, nil
}

// crawlRun is one crawl's outcome.
type crawlRun struct {
	wall        float64
	fingerprint uint64
	client      *clientTimer
	layers      map[string]float64
	spans       []span
}

func (c *crawlBench) measure(ctx context.Context, seconds float64, traced bool) (*pass, error) {
	p := &pass{e2e: map[string]float64{}, layers: map[string]float64{}}
	var walls, rates, lat []float64
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
		r, err := c.once(ctx, i, rec)
		if err != nil {
			return nil, err
		}
		p.output = r.fingerprint
		if r.fingerprint != c.want {
			p.checkErr = fmt.Errorf("crawl %d: fingerprint %x, dataset.FromWorld %x", i, r.fingerprint, c.want)
			return p, nil
		}
		walls = append(walls, r.wall)
		rates = append(rates, float64(r.client.attempts)/r.wall)
		lat = append(lat, r.client.lat...)
		p.attempted += r.client.attempts
		p.failed += r.client.failed
		p.spans = append(p.spans, r.spans...)
		for k, v := range r.layers {
			samples[k] = append(samples[k], v)
		}
	}
	p.e2e["wall_s"] = median(walls)
	p.e2e["p50_ms"] = median(lat) * 1e3
	p.e2e["max_rps"] = median(rates)
	p.primary = p.e2e["wall_s"]
	for k, v := range samples {
		p.layers[k] = median(v)
	}
	return p, nil
}

// once runs one crawl.
func (c *crawlBench) once(ctx context.Context, i int, rec *recorder) (*crawlRun, error) {
	reg := installRegistry()
	stack := serve.New(c.res, c.store, serve.Config{Registry: obs.NewRegistry(), Seed: c.o.seed, EtherscanRate: 1 << 20})
	srv, err := serveLoopback(serverTimer(stack.Handler, rec), c.o.onListen)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	tr := &http.Transport{MaxConnsPerHost: crawlWorkers, MaxIdleConnsPerHost: crawlWorkers}
	defer tr.CloseIdleConnections()
	ct := &clientTimer{next: tr, rec: rec}
	sg, es, osc := crawlClients(srv.url, &http.Client{Timeout: 30 * time.Second, Transport: ct})

	dir := filepath.Join(c.dir, fmt.Sprintf("crawl-%d", i))
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "dataset.bin")
	opts := dataset.BuildOptions{
		Start: c.res.Config.Start, End: c.res.Config.End,
		TxWorkers: crawlWorkers, MarketWorkers: crawlWorkers,
		ResumeDir: filepath.Join(dir, "resume"), Obs: reg,
	}
	// Each crawl starts from a collected heap, so where the previous
	// iteration left the GC cycle does not shift this one's timing, and
	// the previous crawl's dataset does not add to this one's peak.
	runtime.GC()
	rctx, root := rec.open(ctx, "crawl", "")
	t0 := time.Now()
	ds, err := dataset.Build(rctx, regSource{sg, rec}, txSource{es, rec}, marketSource{osc, rec}, opts)
	if err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}
	_, sp := rec.open(rctx, "dataset.save", "")
	tSave := time.Now()
	if err := ds.SaveSnapshot(out, dataset.WithFormat(dataset.FormatBinary)); err != nil {
		return nil, fmt.Errorf("save crawled dataset: %w", err)
	}
	saveS := time.Since(tSave).Seconds()
	sp.end()
	wall := time.Since(t0).Seconds()
	root.end()

	r := &crawlRun{wall: wall, fingerprint: ds.Fingerprint(), client: ct}
	if rec == nil {
		return r, nil
	}
	r.layers = map[string]float64{"dataset.save_s": saveS}
	fi, err := os.Stat(out)
	if err != nil {
		return nil, err
	}
	r.layers["dataset.saved_mb"] = float64(fi.Size()) / (1 << 20)
	_, sp = rec.open(rctx, "dataset.reindex", "")
	t0 = time.Now()
	ds.Reindex()
	r.layers["dataset.reindex_s"] = time.Since(t0).Seconds()
	sp.end()

	r.spans = rec.take()
	l := ledger(r.spans)
	set := func(name string, v float64) { r.layers[name] = v }
	if st := l["subgraph.page_all"]; st != nil {
		set("subgraph.page_all_s", st.total.Seconds())
		set("subgraph.page_all_calls", float64(st.count))
	}
	var txBusy float64
	if st := l["etherscan.txlist"]; st != nil {
		txBusy = st.total.Seconds()
		set("etherscan.txlist_calls", float64(st.count))
		set("etherscan.txlist_busy_s", txBusy)
		set("etherscan.txlist_p50_ms", quantile(st.durations, 0.5)*1e3)
		set("etherscan.txlist_p99_ms", quantile(st.durations, 0.99)*1e3)
	}
	if st := l["etherscan.labels"]; st != nil {
		set("etherscan.labels_s", st.total.Seconds())
	}
	if st := l["opensea.events"]; st != nil {
		set("opensea.events_calls", float64(st.count))
		set("opensea.events_busy_s", st.total.Seconds())
	}
	stages := reg.GaugeVec("dataset_stage_seconds", "", "stage")
	for _, s := range []string{"events", "subdomains", "labels", "transactions", "market"} {
		set("dataset.stage."+s+"_s", stages.With(s).Value())
	}
	// Worker time in the transactions stage that TxList did not cover:
	// spool encode, checkpoint, spool snapshots and waits on the crawl's
	// lock.
	set("dataset.txs_outside_fetch_s", crawlWorkers*stages.With("transactions").Value()-txBusy)
	set("dataset.spool_snapshot_writes", sumFamily(reg, "dataset_spool_snapshot_writes_total"))
	stackLayers(reg, r.layers)
	ct.mu.Lock()
	// crawler_retry_attempts_total counts first tries too; the ledger
	// keeps only the attempts beyond each request's first.
	set("crawler.retry_attempts", sumFamily(reg, "crawler_retry_attempts_total")-float64(len(ct.seen)))
	if ct.attempts > 0 {
		set("crawler.first_try_ratio", float64(ct.firstOK)/float64(ct.attempts))
	}
	ct.mu.Unlock()
	set("crawler.retry_exhausted", sumFamily(reg, "crawler_retry_exhausted_total"))
	set("crawler.breaker_rejections", sumFamily(reg, "crawler_breaker_rejections_total"))
	set("crawler.budget_denied", sumFamily(reg, "crawler_retry_budget_denied_total"))
	serveLayers(l, r.layers)
	return r, nil
}

// serveLayers derives the serve.* ledger from the outer timing
// wrapper's spans and the client spans that caused them.
func serveLayers(l map[string]*spanStats, layers map[string]float64) {
	var server []float64
	for _, route := range routes {
		st := l["serve."+route]
		if st == nil {
			continue
		}
		layers["serve."+route+".server_p50_ms"] = quantile(st.durations, 0.5) * 1e3
		layers["serve."+route+".server_p99_ms"] = quantile(st.durations, 0.99) * 1e3
		layers["serve."+route+".requests"] = float64(st.count)
		server = append(server, st.durations...)
	}
	if st := l["http.client"]; st != nil && len(server) > 0 {
		layers["serve.client_minus_server_p50_ms"] = (quantile(st.durations, 0.5) - quantile(server, 0.5)) * 1e3
	}
}

// crawlClients builds the three source clients as enscrawl does by
// default (breakers, retry budgets, no hedging), unpaced: the server's
// own etherscan limit is set out of the way, so the crawl runs as fast
// as the stack answers.
func crawlClients(base string, hc *http.Client) (*subgraph.Client, *etherscan.Client, *opensea.Client) {
	sg := subgraph.NewClient(base + "/subgraph")
	es := etherscan.NewClient(base+"/etherscan", "perfbench")
	osc := opensea.NewClient(base + "/opensea")
	sg.HTTPClient, es.HTTPClient, osc.HTTPClient = hc, hc, hc
	es.MinInterval = 0
	sg.Breaker = crawler.NewBreaker("subgraph", 8, 15*time.Second)
	es.Breaker = crawler.NewBreaker("etherscan", 8, 15*time.Second)
	osc.Breaker = crawler.NewBreaker("opensea", 8, 15*time.Second)
	sg.Budget = crawler.NewRetryBudget("subgraph", 0.1, 10)
	es.Budget = crawler.NewRetryBudget("etherscan", 0.1, 10)
	osc.Budget = crawler.NewRetryBudget("opensea", 0.1, 10)
	sg.ClientID, es.ClientID, osc.ClientID = "perfbench", "perfbench", "perfbench"
	return sg, es, osc
}

// The source wrappers time each dataset.Build call into a layer.
type regSource struct {
	next dataset.RegistrationSource
	rec  *recorder
}

func (s regSource) PageAll(ctx context.Context, collection string, fields []string) ([]subgraph.Entity, error) {
	ctx, sp := s.rec.open(ctx, "subgraph.page_all", collection)
	defer sp.end()
	return s.next.PageAll(ctx, collection, fields)
}

type txSource struct {
	next dataset.TxSource
	rec  *recorder
}

func (s txSource) TxList(ctx context.Context, addr ethtypes.Address) ([]etherscan.TxRecord, error) {
	ctx, sp := s.rec.open(ctx, "etherscan.txlist", addr.Hex())
	defer sp.end()
	return s.next.TxList(ctx, addr)
}

func (s txSource) FetchLabels(ctx context.Context) (etherscan.Labels, error) {
	ctx, sp := s.rec.open(ctx, "etherscan.labels", "")
	defer sp.end()
	return s.next.FetchLabels(ctx)
}

type marketSource struct {
	next dataset.MarketSource
	rec  *recorder
}

func (s marketSource) EventsForToken(ctx context.Context, token ethtypes.Hash) ([]opensea.Event, error) {
	ctx, sp := s.rec.open(ctx, "opensea.events", token.Hex())
	defer sp.end()
	return s.next.EventsForToken(ctx, token)
}
