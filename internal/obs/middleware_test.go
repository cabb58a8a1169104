package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareRecordsRouteAndStatus(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "t")
	handler := m.Wrap("/api", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("fail") != "" {
			http.Error(w, "nope", http.StatusBadRequest)
			return
		}
		w.Write([]byte("ok")) // implicit 200
	}))

	for _, target := range []string{"/api", "/api", "/api?fail=1"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	}

	if got := m.requests.With("/api", "2xx").Value(); got != 2 {
		t.Errorf(`requests{route="/api",code="2xx"} = %d, want 2`, got)
	}
	if got := m.requests.With("/api", "4xx").Value(); got != 1 {
		t.Errorf(`requests{route="/api",code="4xx"} = %d, want 1`, got)
	}
	if got := m.latency.With("/api").Count(); got != 3 {
		t.Errorf("latency count = %d, want 3", got)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight after requests = %v, want 0", got)
	}

	var b strings.Builder
	r.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`t_http_requests_total{route="/api",code="2xx"} 2`,
		`t_http_requests_total{route="/api",code="4xx"} 1`,
		`t_http_request_seconds_count{route="/api"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMiddlewareInflightVisibleDuringRequest(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "t2")
	var seen float64
	handler := m.Wrap("/slow", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seen = m.inflight.Value()
	}))
	handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/slow", nil))
	if seen != 1 {
		t.Errorf("inflight during request = %v, want 1", seen)
	}
}

func TestRegisterDebugServesMetricsAndProfiles(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug_smoke_total", "smoke").Inc()
	mux := http.NewServeMux()
	RegisterDebug(mux, reg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":             "debug_smoke_total 1",
		"/debug/pprof/":        "goroutine",
		"/debug/vars":          "memstats",
		"/debug/pprof/cmdline": "",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body[:n]), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}
