// Package opensea reimplements the slice of the OpenSea events API the
// paper uses for its resale-market analysis (§4.2): listing and sale events
// per ENS token, queryable by token id with cursor paging. ENS names are
// NFTs whose token id is the label hash, so the marketplace joins naturally
// against the registrar's records.
package opensea

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/httpjson"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/trace"
	"ensdropcatch/internal/world"
)

// Event is one marketplace event, JSON-shaped for the API.
type Event struct {
	EventType string  `json:"event_type"` // "listing" or "sale"
	TokenID   string  `json:"token_id"`
	Name      string  `json:"name"` // "<label>.eth"
	Seller    string  `json:"seller"`
	Buyer     string  `json:"buyer,omitempty"`
	PriceUSD  float64 `json:"price_usd"`
	Timestamp int64   `json:"event_timestamp"`
}

type eventsResponse struct {
	AssetEvents []Event `json:"asset_events"`
	Next        string  `json:"next,omitempty"`
}

// Server serves marketplace events.
type Server struct {
	mu      sync.RWMutex
	byToken map[string][]Event
	all     []Event
}

// NewServer indexes a world's marketplace stream.
func NewServer(events []world.OpenSeaEvent) *Server {
	s := &Server{byToken: make(map[string][]Event)}
	for _, ev := range events {
		e := Event{
			TokenID:   ev.TokenID.Hex(),
			Name:      ev.Label + ".eth",
			Seller:    ev.Seller.Hex(),
			PriceUSD:  ev.PriceUSD,
			Timestamp: ev.Timestamp,
		}
		switch ev.Kind {
		case world.OSList:
			e.EventType = "listing"
		case world.OSSale:
			e.EventType = "sale"
			e.Buyer = ev.Buyer.Hex()
		}
		s.byToken[e.TokenID] = append(s.byToken[e.TokenID], e)
		s.all = append(s.all, e)
	}
	sort.SliceStable(s.all, func(i, j int) bool { return s.all[i].Timestamp < s.all[j].Timestamp })
	return s
}

// ServeHTTP handles GET /events with optional token_id, event_type, and
// cursor/limit query parameters.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/events" {
		http.NotFound(w, r)
		return
	}
	q := r.URL.Query()
	limit := 50
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 || n > 200 {
			http.Error(w, `{"error": "limit must be in [1, 200]"}`, http.StatusBadRequest)
			return
		}
		limit = n
	}
	cursor := 0
	if cs := q.Get("cursor"); cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			http.Error(w, `{"error": "bad cursor"}`, http.StatusBadRequest)
			return
		}
		cursor = n
	}
	tokenID := q.Get("token_id")
	eventType := q.Get("event_type")

	s.mu.RLock()
	src := s.all
	if tokenID != "" {
		src = s.byToken[tokenID]
	}
	var matched []Event
	for _, e := range src {
		if eventType != "" && e.EventType != eventType {
			continue
		}
		matched = append(matched, e)
	}
	s.mu.RUnlock()

	resp := eventsResponse{AssetEvents: []Event{}}
	if cursor < len(matched) {
		end := cursor + limit
		if end > len(matched) {
			end = len(matched)
		}
		resp.AssetEvents = matched[cursor:end]
		if end < len(matched) {
			resp.Next = strconv.Itoa(end)
		}
	}
	// A failed response write means the client is gone; nothing to repair.
	_ = httpjson.Write(w, http.StatusOK, &resp)
}

// Client pages through the events API. Transport failures, 5xx answers,
// and truncated responses are retried with backoff, honoring Retry-After
// on 429s; 4xx answers are permanent.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	Limit      int
	// MaxRetries per page fetch on transient failures.
	MaxRetries int
	// Sleep is indirected for tests; nil uses a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Breaker, when set, circuit-breaks requests to this source.
	Breaker *crawler.Breaker
	// Adaptive, when set, paces and bounds in-flight requests with AIMD
	// control fed by server feedback (429/503 + Retry-After, latency).
	Adaptive *crawler.Adaptive
	// ClientID, when non-empty, is sent as X-Client-ID so server-side
	// per-client quotas key on a stable identity.
	ClientID string
	// Budget, when set, caps how many retries this client may fund
	// during an outage; a dry budget fails fast instead of storming.
	Budget *crawler.RetryBudget
	// Hedger, when set, duplicates slow page fetches past the
	// tail-latency estimate; page GETs are idempotent.
	Hedger *crawler.Hedger
}

// NewClient returns a client with defaults.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: &http.Client{Timeout: 30 * time.Second}, Limit: 200, MaxRetries: 5}
}

// EventsForToken retrieves all events for one ENS token (label hash).
func (c *Client) EventsForToken(ctx context.Context, tokenID ethtypes.Hash) ([]Event, error) {
	return c.page(ctx, url.Values{"token_id": {tokenID.Hex()}})
}

// AllEvents retrieves the full event stream, optionally filtered by type
// ("listing", "sale", or "" for both).
func (c *Client) AllEvents(ctx context.Context, eventType string) ([]Event, error) {
	v := url.Values{}
	if eventType != "" {
		v.Set("event_type", eventType)
	}
	return c.page(ctx, v)
}

func (c *Client) page(ctx context.Context, params url.Values) ([]Event, error) {
	limit := c.Limit
	if limit <= 0 || limit > 200 {
		limit = 200
	}
	params.Set("limit", strconv.Itoa(limit))
	var out []Event
	cursor := ""
	for {
		if cursor != "" {
			params.Set("cursor", cursor)
		}
		endpoint := c.BaseURL + "/events?" + params.Encode()
		page, err := c.fetchPage(ctx, endpoint)
		if err != nil {
			return nil, err
		}
		m().pages.Inc()
		m().events.Add(uint64(len(page.AssetEvents)))
		out = append(out, page.AssetEvents...)
		if page.Next == "" {
			return out, nil
		}
		cursor = page.Next
	}
}

// fetchPage retrieves one page with retries and breaker accounting.
func (c *Client) fetchPage(ctx context.Context, endpoint string) (*eventsResponse, error) {
	attempts := c.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	cfg := crawler.RetryConfig{
		Attempts:  attempts,
		BaseDelay: 200 * time.Millisecond,
		MaxDelay:  10 * time.Second,
		Jitter:    0.2,
		Sleep:     c.Sleep,
		Budget:    c.Budget,
	}
	// One page fetch is one span; retry attempts nest under it and the
	// traceparent each attempt sends links the server's records in.
	ctx, sp := trace.Start(ctx, "opensea.page")
	var page *eventsResponse
	err := crawler.Retry(ctx, cfg, func(ctx context.Context) error {
		if b := c.Breaker; b != nil {
			if err := b.Allow(); err != nil {
				return err
			}
		}
		if a := c.Adaptive; a != nil {
			if err := a.Wait(ctx); err != nil {
				return crawler.Permanent(err)
			}
			if err := a.Acquire(ctx); err != nil {
				return crawler.Permanent(err)
			}
		}
		var err error
		start := time.Now()
		// The hedged pair runs under the single Adaptive slot acquired
		// above; speculative volume is bounded by the retry budget.
		page, err = crawler.Hedge(ctx, c.Hedger, func(ctx context.Context) (*eventsResponse, error) {
			return c.doOnce(ctx, endpoint)
		})
		if a := c.Adaptive; a != nil {
			a.Release()
			a.Observe(err, time.Since(start))
		}
		if b := c.Breaker; b != nil {
			b.Record(err)
		}
		return err
	})
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	return page, nil
}

// doOnce performs one page request. Errors it returns are transient
// (retryable) unless wrapped with crawler.Permanent.
func (c *Client) doOnce(ctx context.Context, endpoint string) (*eventsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint, nil)
	if err != nil {
		return nil, crawler.Permanent(err)
	}
	overload.SetRequestHeaders(req, c.ClientID)
	trace.Inject(req)
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	m().requests.Inc()
	resp, err := httpClient.Do(req)
	if err != nil {
		m().errors.Inc()
		return nil, fmt.Errorf("opensea: %w", err)
	}
	raw, err := httpjson.ReadBody(resp.Body, 16<<20)
	_ = resp.Body.Close() // read side; the read error above is what matters
	if err != nil {
		m().errors.Inc()
		return nil, fmt.Errorf("opensea: read: %w", err)
	}
	defer httpjson.PutSlice(raw) // the decoded page copies what it keeps
	body := *raw
	if resp.StatusCode != http.StatusOK {
		m().errors.Inc()
		statusErr := fmt.Errorf("opensea: HTTP %d: %s", resp.StatusCode, body)
		if d, ok := crawler.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return nil, crawler.RetryAfter(statusErr, d)
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, crawler.Permanent(statusErr)
		}
		return nil, statusErr
	}
	var page eventsResponse
	if err := json.Unmarshal(body, &page); err != nil {
		m().errors.Inc()
		return nil, fmt.Errorf("opensea: decode: %w", err)
	}
	return &page, nil
}
