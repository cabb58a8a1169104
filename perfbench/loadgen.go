package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ensdropcatch/internal/overload"
)

// request is one planned request and its send time within its phase.
type request struct {
	method string
	path   string
	body   string
	due    time.Duration
	sample bool // body compared against the bare backend after the pass
}

// targets is the pool requests draw from: label hashes (subgraph
// cursors, opensea token ids) and registrant addresses (etherscan, rpc).
type targets struct {
	ids, addrs []string
}

// planner draws ensload's request mix (40/25/20/10/5 subgraph, etherscan,
// opensea, rpc, healthz) with zipf-skewed targets from one seeded
// generator, so a seed always yields the same requests in the same order.
type planner struct {
	r    *rand.Rand
	zipf *rand.Zipf
	t    targets
}

// sampleEvery is the share of requests (1 in n) whose body is checked.
const sampleEvery = 64

func newPlanner(seed int64, t targets) *planner {
	r := rand.New(rand.NewSource(seed))
	return &planner{r: r, zipf: rand.NewZipf(r, 1.3, 1, uint64(len(t.ids)-1)), t: t}
}

func (p *planner) pick(pool []string) string {
	i := p.zipf.Uint64()
	if i >= uint64(len(pool)) {
		i = uint64(len(pool)) - 1
	}
	return pool[i]
}

// phase plans n requests spread evenly over d.
func (p *planner) phase(n int, d time.Duration) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = p.next()
		out[i].due = time.Duration(float64(d) * float64(i) / float64(n))
	}
	return out
}

func (p *planner) next() request {
	sample := p.r.Intn(sampleEvery) == 0
	var q request
	switch draw := p.r.Intn(100); {
	case draw < 40:
		cursor := ""
		if p.r.Intn(10) > 0 { // 10% first pages, 90% deep cursors
			cursor = p.pick(p.t.ids)
		}
		query := fmt.Sprintf(`{ registrationEvents(first: 100, orderBy: id, where: {id_gt: %q}) { id type label labelName registrant expiryDate costWei premiumWei timestamp blockNumber txHash } }`, cursor)
		q = request{method: http.MethodPost, path: "/subgraph", body: mustJSON(map[string]string{"query": query})}
	case draw < 65:
		q = request{method: http.MethodGet,
			path: "/etherscan/api?module=account&action=txlist&address=" + p.pick(p.t.addrs) + "&startblock=0&page=1&offset=100&apikey=perfbench"}
	case draw < 85:
		if p.r.Intn(5) == 0 { // 20% full-stream pages
			q = request{method: http.MethodGet, path: "/opensea/events?limit=50"}
		} else {
			q = request{method: http.MethodGet, path: "/opensea/events?token_id=" + p.pick(p.t.ids) + "&limit=50"}
		}
	case draw < 95:
		body := `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`
		if p.r.Intn(2) == 0 {
			body = mustJSON(map[string]any{"jsonrpc": "2.0", "id": 1, "method": "eth_getBalance", "params": []string{p.pick(p.t.addrs)}})
		}
		q = request{method: http.MethodPost, path: "/rpc", body: body}
	default:
		q = request{method: http.MethodGet, path: "/healthz"}
	}
	// /healthz reports live server state, so only its status is checked.
	q.sample = sample && q.path != "/healthz"
	return q
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // string maps and slices always marshal
	}
	return string(b)
}

func (q request) build(ctx context.Context, base string) (*http.Request, error) {
	var body io.Reader
	if q.body != "" {
		body = strings.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(ctx, q.method, base+q.path, body)
	if err != nil {
		return nil, err
	}
	if q.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	overload.SetRequestHeaders(req, "perfbench")
	return req, nil
}

// outcome is one answered (or failed) request.
type outcome struct {
	lat    time.Duration // from the scheduled send time to the full answer
	late   time.Duration // how late the generator handed the request out
	status int
	body   []byte // kept for sampled requests
	err    error
}

// phaseStats is one open-loop phase's outcome.
type phaseStats struct {
	rate       float64
	outcomes   []outcome
	backlogMax int64
	backlogEnd int64 // outstanding when the phase's last request was due
}

// client fires planned requests over at most conns connections.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder
}

// do sends one request and reads the whole answer.
func (c *client) do(ctx context.Context, i int, q request, due time.Time) outcome {
	if c.rec != nil {
		var sp *openSpan
		ctx, sp = c.rec.open(ctx, "loadgen.request", "req-"+strconv.Itoa(i))
		defer sp.end()
	}
	req, err := q.build(ctx, c.base)
	if err != nil {
		return outcome{err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{lat: time.Since(due), err: err}
	}
	defer resp.Body.Close()
	var body []byte
	if q.sample {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return outcome{lat: time.Since(due), status: resp.StatusCode, body: body, err: err}
}

// closedLoop sends reqs back to back from conns workers and returns the
// time the whole batch took.
func (c *client) closedLoop(ctx context.Context, reqs []request) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				out[i] = c.do(ctx, i, reqs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// openLoop sends each request at its due time whether or not earlier
// ones have been answered. One dispatcher hands requests to conns
// workers through a queue sized to the phase, so a slow server grows
// the queue (and the latency timed from the due time), never slows the
// schedule.
func (c *client) openLoop(ctx context.Context, reqs []request, rate float64) (*phaseStats, error) {
	ps := &phaseStats{rate: rate, outcomes: make([]outcome, len(reqs))}
	type item struct {
		i    int
		due  time.Time
		late time.Duration
	}
	queue := make(chan item, len(reqs))
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				o := c.do(ctx, it.i, reqs[it.i], it.due)
				o.late = it.late
				ps.outcomes[it.i] = o
				done.Add(1)
			}
		}()
	}
	t0 := time.Now()
	dispatched := make(chan error, 1)
	go func() {
		defer close(queue)
		// The runtime's timers fire up to a millisecond late on an idle
		// process, far above the stack's answer times, so the dispatcher
		// sleeps in the kernel on its own thread with the timer slack
		// cut to 1ns. The thread is discarded when the goroutine exits.
		runtime.LockOSThread()
		if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0); errno != 0 {
			dispatched <- fmt.Errorf("set timer slack: %w", errno)
			return
		}
		for i, q := range reqs {
			due := t0.Add(q.due)
			for d := time.Until(due); d > 0; d = time.Until(due) {
				if ctx.Err() != nil {
					dispatched <- ctx.Err()
					return
				}
				ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
				_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
			}
			queue <- item{i: i, due: due, late: time.Since(due)}
			backlog := int64(i+1) - done.Load()
			ps.backlogMax = max(ps.backlogMax, backlog)
			ps.backlogEnd = backlog
		}
		dispatched <- nil
	}()
	err := <-dispatched
	wg.Wait()
	return ps, err
}

// percentiles of an outcome set: latency (failures count as +Inf) and
// generator lateness, in seconds.
func (ps *phaseStats) latencies() (lat, late []float64) {
	for _, o := range ps.outcomes {
		l := o.lat.Seconds()
		if !o.ok() {
			l = 1e9
		}
		lat = append(lat, l)
		late = append(late, o.late.Seconds())
	}
	return lat, late
}

// ok reports a 2xx/304 answer read in full.
func (o outcome) ok() bool {
	return o.err == nil && (o.status/100 == 2 || o.status == http.StatusNotModified)
}

// checkBodies compares each sampled answer with what the bare backend
// handler returns for the same request.
func checkBodies(ctx context.Context, bare http.Handler, reqs []request, outs []outcome) error {
	for i, q := range reqs {
		if !q.sample || !outs[i].ok() {
			continue
		}
		req, err := q.build(ctx, "http://bare.invalid")
		if err != nil {
			return err
		}
		rec := newResponseBuffer()
		bare.ServeHTTP(rec, req)
		if rec.status != outs[i].status || !bytes.Equal(rec.body.Bytes(), outs[i].body) {
			return fmt.Errorf("%s %s: stack answered %d (%d bytes), bare handler %d (%d bytes)",
				q.method, q.path, outs[i].status, len(outs[i].body), rec.status, rec.body.Len())
		}
	}
	return nil
}

// responseBuffer is a minimal in-memory http.ResponseWriter.
type responseBuffer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newResponseBuffer() *responseBuffer {
	return &responseBuffer{header: http.Header{}, status: http.StatusOK}
}

func (r *responseBuffer) Header() http.Header         { return r.header }
func (r *responseBuffer) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *responseBuffer) WriteHeader(code int)        { r.status = code }
