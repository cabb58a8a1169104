package main

import (
	"errors"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Headers joining a client span to the server span it caused.
const (
	spanHeader = "X-Bench-Span"
	keyHeader  = "X-Bench-Key"
)

// loopback is an http.Server on 127.0.0.1:0 whose close returns only
// after Serve has.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler, onListen func(string)) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if onListen != nil {
		onListen(ln.Addr().String())
	}
	l := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return l, nil
}

func (l *loopback) close() error {
	err := l.srv.Close()
	<-l.done
	return err
}

// routeOf maps a request path to its serve-stack route.
func routeOf(path string) string {
	for _, r := range routes {
		if path == "/"+r || strings.HasPrefix(path, "/"+r+"/") {
			return r
		}
	}
	return "other"
}

// serverTimer is the timing wrapper outside serve.Stack.Handler: one
// "serve.<route>" span per request, parented to the client span named
// in the request headers.
func serverTimer(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		rec.add("serve."+routeOf(r.URL.Path), r.Header.Get(keyHeader), parent, t0, time.Now())
	})
}

// clientTimer wraps the crawler's transport: it times every attempt
// (crawl's p50_ms), counts failed ones, and in a traced pass records an
// "http.client" span per attempt and counts first attempts that
// succeeded.
type clientTimer struct {
	next http.RoundTripper
	rec  *recorder

	mu       sync.Mutex
	lat      []float64       // seconds, guarded by mu
	failed   int64           // guarded by mu
	seen     map[uint64]bool // request identities sent so far; guarded by mu
	firstOK  int64           // guarded by mu
	attempts int64           // guarded by mu
}

func (c *clientTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	var id uint64
	if c.rec != nil {
		var err error
		if id, err = requestID(req); err != nil {
			return nil, err
		}
		ctx, sp := c.rec.open(req.Context(), "http.client", "")
		defer sp.end()
		ref := ctx.Value(spanCtxKey{}).(spanRef)
		req = req.Clone(ctx)
		req.Header.Set(spanHeader, strconv.FormatUint(ref.id, 10))
		req.Header.Set(keyHeader, ref.key)
	}
	t0 := time.Now()
	resp, err := c.next.RoundTrip(req)
	d := time.Since(t0).Seconds()
	ok := err == nil && resp.StatusCode < 400

	c.mu.Lock()
	defer c.mu.Unlock()
	c.lat = append(c.lat, d)
	c.attempts++
	if !ok {
		c.failed++
	}
	if c.rec != nil {
		if c.seen == nil {
			c.seen = map[uint64]bool{}
		}
		if !c.seen[id] && ok {
			c.firstOK++
		}
		c.seen[id] = true
	}
	return resp, err
}

// requestID hashes a request's method, URL and body, so a retried
// attempt has the identity of its first try.
func requestID(req *http.Request) (uint64, error) {
	h := fnv.New64a()
	io.WriteString(h, req.Method+" "+req.URL.String()+"\n")
	if req.Body != nil && req.Body != http.NoBody {
		if req.GetBody == nil {
			return 0, errors.New("request body cannot be re-read")
		}
		body, err := req.GetBody()
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(h, body)
		body.Close()
		if err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}
