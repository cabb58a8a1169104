package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethrpc"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

const (
	serveDomains = 20000
	// conns caps the generator's connections (and workers) at the
	// reference box's core count.
	conns = 2
	// baseRate is the open-loop rate p50_ms is measured at, in req/s.
	baseRate = 500
	// latencyLimit is the p99 a ladder rung must meet for max_rps. On the
	// 2-core reference VM, scheduling stalls alone put the light-load p99
	// at 1-15 ms, so the limit sits above them and a miss means the
	// backlog grew.
	latencyLimit = 50 * time.Millisecond
	// lateLimit is the generator's median lateness beyond which a rung
	// is invalid: the generator, not the server, fell behind.
	lateLimit = time.Millisecond
	// Shares of a pass: the base phase, and each ladder rung.
	baseShare, rungShare = 0.25, 0.07
	// batchChunk is the closed-loop request count wall_s times; a pass
	// sends one chunk per two seconds of its length.
	batchChunk = 2000
)

// ladder is the fixed set of open-loop rates above baseRate, in req/s,
// about 25% apart, climbed until two rungs in a row are not "ok".
var ladder = []float64{4000, 5000, 6300, 8000, 10000, 12500, 16000, 20000, 25000, 32000}

// serveBench is seeded traffic against the self-hosted stack. Each pass
// serves a fresh serve.New stack (cold page cache) and sends, over conns
// connections: closed-loop chunks (wall_s; they also warm the cache), an
// open-loop phase at baseRate (p50_ms), then the ladder (max_rps).
type serveBench struct {
	o     options
	res   *world.Result
	store *subgraph.Store
	bare  http.Handler
	t     targets
	log   io.Writer
}

func newServeBench(o options, log io.Writer) *serveBench {
	if o.domains == 0 {
		o.domains = serveDomains
	}
	return &serveBench{o: o, log: log}
}

func (s *serveBench) setup(ctx context.Context) (map[string]float64, error) {
	s.res, s.store, s.bare = nil, nil, nil
	layers := map[string]float64{}
	res, err := generateWorld(s.o, layers)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	store := subgraph.BuildIndex(res.Chain)
	layers["subgraph.build_index_s"] = time.Since(t0).Seconds()
	bare := bareBackends(res, store)
	t, err := scout(ctx, bare)
	if err != nil {
		return nil, err
	}
	s.res, s.store, s.bare, s.t = res, store, bare, t
	return layers, nil
}

// bareBackends is the four data handlers without the serve stack's
// middleware: the reference sampled answers are compared against.
func bareBackends(res *world.Result, store *subgraph.Store) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/subgraph", subgraph.NewServer(store, nil))
	mux.Handle("/etherscan/", http.StripPrefix("/etherscan",
		etherscan.NewServer(res.Chain, dataset.LabelsFromWorld(res), 1<<20, nil)))
	mux.Handle("/opensea/", http.StripPrefix("/opensea", opensea.NewServer(res.OpenSea)))
	mux.Handle("/rpc", ethrpc.NewServer(res.Chain))
	return mux
}

// scout reads the target pool ensload uses, the first 500 registrations
// and their registrants, from the bare subgraph handler.
func scout(ctx context.Context, bare http.Handler) (targets, error) {
	q := request{method: http.MethodPost, path: "/subgraph",
		body: mustJSON(map[string]string{"query": `{ registrations(first: 500) { id registrant } }`})}
	req, err := q.build(ctx, "http://bare.invalid")
	if err != nil {
		return targets{}, err
	}
	rb := newResponseBuffer()
	bare.ServeHTTP(rb, req)
	var payload struct {
		Data struct {
			Registrations []struct {
				ID         string `json:"id"`
				Registrant string `json:"registrant"`
			} `json:"registrations"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rb.body.Bytes(), &payload); err != nil {
		return targets{}, fmt.Errorf("scout: %w", err)
	}
	var t targets
	seen := map[string]bool{}
	for _, r := range payload.Data.Registrations {
		t.ids = append(t.ids, r.ID)
		if r.Registrant != "" && !seen[r.Registrant] {
			seen[r.Registrant] = true
			t.addrs = append(t.addrs, r.Registrant)
		}
	}
	if len(t.ids) < 2 || len(t.addrs) == 0 {
		return targets{}, errors.New("scout: the world has too few registrations")
	}
	return t, nil
}

func (s *serveBench) measure(ctx context.Context, seconds float64, traced bool) (*pass, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	reg := installRegistry()
	stack := serve.New(s.res, s.store, serve.Config{Registry: obs.NewRegistry(), Seed: s.o.seed, EtherscanRate: 1 << 20})
	srv, err := serveLoopback(serverTimer(stack.Handler, rec), s.o.onListen)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer tr.CloseIdleConnections()
	c := &client{hc: &http.Client{Timeout: 30 * time.Second, Transport: &clientTimer{next: tr, rec: rec}}, base: srv.url, rec: rec}
	pl := newPlanner(s.o.seed, s.t)
	p := &pass{e2e: map[string]float64{}, layers: map[string]float64{}}

	// tally counts a phase's answers and checks them. The output digest
	// covers the chunks and the base phase only: how far the ladder
	// climbs depends on timing.
	out := fnv.New64a()
	tally := func(reqs []request, outs []outcome, digest bool) {
		for _, o := range outs {
			if digest {
				fmt.Fprintf(out, "%d %d\n", o.status, len(o.body))
				out.Write(o.body)
			}
			p.attempted++
			if !o.ok() {
				p.failed++
				if p.checkErr == nil {
					p.checkErr = fmt.Errorf("answer %d (%v)", o.status, o.err)
				}
			}
		}
		if p.checkErr == nil {
			p.checkErr = checkBodies(ctx, s.bare, reqs, outs)
		}
	}

	var chunkTimes []float64
	for i := 0; i < max(1, int(seconds/2)); i++ {
		chunk := pl.phase(batchChunk, 0)
		outs, took := c.closedLoop(ctx, chunk)
		tally(chunk, outs, true)
		chunkTimes = append(chunkTimes, took.Seconds())
	}
	p.e2e["wall_s"] = median(chunkTimes)

	baseD := time.Duration(seconds * baseShare * float64(time.Second))
	baseReqs := pl.phase(int(baseD.Seconds()*baseRate), baseD)
	// Each open-loop phase starts from a collected heap: with the world
	// held live, where a GC cycle falls decides whether a rung meets the
	// limit, and it should depend on the rung's own rate, not on the
	// phases before it.
	runtime.GC()
	base, err := c.openLoop(ctx, baseReqs, baseRate)
	if err != nil {
		return nil, err
	}
	tally(baseReqs, base.outcomes, true)
	lat, late := base.latencies()
	p.output = out.Sum64()
	p.e2e["p50_ms"] = quantile(lat, 0.5) * 1e3
	p.primary = p.e2e["p50_ms"]

	rungD := time.Duration(seconds * rungShare * float64(time.Second))
	rungs := []*phaseStats{base}
	for i, rate := range ladder {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// One rung can miss on a scheduling stall alone; two in a row
		// end the climb.
		if verdict(rungs[i]) != "ok" && (i == 0 || verdict(rungs[i-1]) != "ok") {
			break
		}
		reqs := pl.phase(int(rate*rungD.Seconds()), rungD)
		runtime.GC()
		rs, err := c.openLoop(ctx, reqs, rate)
		if err != nil {
			return nil, err
		}
		tally(reqs, rs.outcomes, false)
		rungs = append(rungs, rs)
	}
	p.e2e["max_rps"] = maxRate(rungs)
	writeRungs(s.log, rungs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !traced {
		return p, nil
	}

	p.spans = rec.take()
	serveLayers(ledger(p.spans), p.layers)
	stackLayers(reg, p.layers)
	p.layers["loadgen.late_p99_ms"] = quantile(late, 0.99) * 1e3
	p.layers["loadgen.sent"] = float64(p.attempted)
	p.layers["loadgen.backlog_max"] = float64(base.backlogMax)
	return p, nil
}

// rungStats is a phase's p99 latency and median generator lateness,
// in seconds.
func rungStats(ps *phaseStats) (p99, late50 float64) {
	lat, late := ps.latencies()
	return quantile(lat, 0.99), quantile(late, 0.5)
}

// verdict classifies a rung: "ok" meets the limit with no growing
// backlog; "invalid" means the generator itself ran late, so the rung
// says nothing about the server; "miss" is a server that fell behind.
func verdict(ps *phaseStats) string {
	p99, late50 := rungStats(ps)
	switch {
	case late50 > lateLimit.Seconds():
		return "invalid"
	case p99 > latencyLimit.Seconds() || float64(ps.backlogEnd) > max(conns, ps.rate*latencyLimit.Seconds()):
		return "miss"
	}
	return "ok"
}

// maxRate is the highest rate meeting the limit: the highest "ok"
// rung's, interpolated on p99 toward the rung above it when that one is
// a "miss". 0 when no rung is "ok".
func maxRate(rungs []*phaseStats) float64 {
	best := -1
	for i, r := range rungs {
		if verdict(r) == "ok" {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	lo := rungs[best]
	if best+1 == len(rungs) || verdict(rungs[best+1]) != "miss" {
		return lo.rate
	}
	hi := rungs[best+1]
	p99lo, _ := rungStats(lo)
	p99hi, _ := rungStats(hi)
	frac := (latencyLimit.Seconds() - p99lo) / (p99hi - p99lo)
	return lo.rate + min(max(frac, 0), 1)*(hi.rate-lo.rate)
}

// writeRungs prints the base phase and each ladder rung.
func writeRungs(w io.Writer, rungs []*phaseStats) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, strings.Join([]string{"rate", "sent", "p50_ms", "p99_ms", "late_p50_ms", "late_p99_ms", "backlog_max", "backlog_end", "verdict", ""}, "\t"))
	for _, r := range rungs {
		lat, late := r.latencies()
		fmt.Fprintf(tw, "%.0f\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%d\t%d\t%s\t\n", r.rate, len(r.outcomes),
			quantile(lat, 0.5)*1e3, quantile(lat, 0.99)*1e3, quantile(late, 0.5)*1e3, quantile(late, 0.99)*1e3,
			r.backlogMax, r.backlogEnd, verdict(r))
	}
	tw.Flush()
}
