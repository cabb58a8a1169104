package subgraph

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/httpjson"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/trace"
)

// Client queries a subgraph endpoint and pages through collections with
// id_gt cursors, the strategy that gives the paper's crawl its ~100%
// completeness under the 1000-row cap. Transport failures, 5xx answers,
// and truncated responses are retried with backoff (honoring Retry-After
// on 429s); GraphQL-level errors are permanent, since re-sending the
// same query buys nothing.
type Client struct {
	// Endpoint is the subgraph URL.
	Endpoint string
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
	// PageSize defaults to MaxPageSize.
	PageSize int
	// MaxRetries per query on transient failures.
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
	// Hedger, when set, duplicates slow queries past the tail-latency
	// estimate. GraphQL queries are read-only, so re-sending one is safe.
	Hedger *crawler.Hedger
}

// NewClient returns a client for the given endpoint.
func NewClient(endpoint string) *Client {
	return &Client{
		Endpoint:   endpoint,
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
		PageSize:   MaxPageSize,
		MaxRetries: 5,
	}
}

// Query executes one raw query and returns the data map.
func (c *Client) Query(ctx context.Context, query string) (map[string][]Entity, error) {
	body, err := json.Marshal(gqlRequest{Query: query})
	if err != nil {
		return nil, fmt.Errorf("subgraph client: marshal: %w", err)
	}
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
	// One query, one span; retry attempts nest under it and propagate
	// the trace id to the server via traceparent.
	ctx, sp := trace.Start(ctx, "subgraph.query")
	if sp != nil {
		sp.Annotate("query.bytes", fmt.Sprintf("%d", len(body)))
	}
	var data map[string][]Entity
	err = crawler.Retry(ctx, cfg, func(ctx context.Context) error {
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
		m().requests.Inc()
		var err error
		start := time.Now()
		// The hedged pair runs under the single Adaptive slot acquired
		// above; speculative volume is bounded by the retry budget.
		data, err = crawler.Hedge(ctx, c.Hedger, func(ctx context.Context) (map[string][]Entity, error) {
			return c.doOnce(ctx, body)
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
	return data, nil
}

// wireEnvelope is the client-side decode target for the response
// envelope: rows come back as generic maps, the shape a real subgraph
// client sees (the server's gqlResponse is the typed serialization
// form).
type wireEnvelope struct {
	Data   map[string][]Entity `json:"data"`
	Errors []gqlError          `json:"errors"`
}

// doOnce performs one HTTP round trip. Errors it returns are transient
// (retryable) unless wrapped with crawler.Permanent.
func (c *Client) doOnce(ctx context.Context, body []byte) (map[string][]Entity, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, crawler.Permanent(fmt.Errorf("subgraph client: request: %w", err))
	}
	req.Header.Set("Content-Type", "application/json")
	overload.SetRequestHeaders(req, c.ClientID)
	trace.Inject(req)
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		m().errors.Inc()
		return nil, fmt.Errorf("subgraph client: do: %w", err)
	}
	defer resp.Body.Close()
	buf, err := httpjson.ReadBody(resp.Body, 64<<20)
	if err != nil {
		m().errors.Inc()
		return nil, fmt.Errorf("subgraph client: read: %w", err)
	}
	defer httpjson.PutSlice(buf) // the decoded envelope copies what it keeps
	raw := *buf
	if resp.StatusCode != http.StatusOK {
		m().errors.Inc()
		statusErr := fmt.Errorf("subgraph client: status %d: %s", resp.StatusCode, truncate(string(raw), 200))
		if d, ok := crawler.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return nil, crawler.RetryAfter(statusErr, d)
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, crawler.Permanent(statusErr)
		}
		return nil, statusErr
	}
	var envelope wireEnvelope
	if err := json.Unmarshal(raw, &envelope); err != nil {
		m().errors.Inc()
		return nil, fmt.Errorf("subgraph client: decode: %w", err)
	}
	if len(envelope.Errors) > 0 {
		m().errors.Inc()
		return nil, crawler.Permanent(fmt.Errorf("subgraph client: server error: %s", envelope.Errors[0].Message))
	}
	return envelope.Data, nil
}

// PageAll retrieves an entire collection using id_gt cursor paging,
// requesting the given fields. The id field is always included (it drives
// the cursor).
func (c *Client) PageAll(ctx context.Context, collection string, fields []string) ([]Entity, error) {
	pageSize := c.PageSize
	if pageSize <= 0 || pageSize > MaxPageSize {
		pageSize = MaxPageSize
	}
	fieldSet := ensureID(fields)
	var out []Entity
	cursor := ""
	for {
		query := fmt.Sprintf(
			`{ %s(first: %d, orderBy: id, where: {id_gt: %q}) { %s } }`,
			collection, pageSize, cursor, strings.Join(fieldSet, " "))
		data, err := c.Query(ctx, query)
		if err != nil {
			return nil, fmt.Errorf("page after %q: %w", cursor, err)
		}
		rows := data[collection]
		m().pages.Inc()
		m().entities.Add(uint64(len(rows)))
		out = append(out, rows...)
		if len(rows) < pageSize {
			return out, nil
		}
		cursor = rows[len(rows)-1].ID()
		if cursor == "" {
			return nil, fmt.Errorf("subgraph client: empty id cursor in collection %q", collection)
		}
	}
}

func ensureID(fields []string) []string {
	for _, f := range fields {
		if f == "id" {
			return fields
		}
	}
	return append([]string{"id"}, fields...)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
