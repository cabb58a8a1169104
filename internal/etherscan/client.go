package etherscan

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/httpjson"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/trace"
)

// Client is a polite Etherscan API client: it paces requests under the
// per-key rate limit, retries transient failures with backoff, and pages
// through large accounts by advancing startblock past the result-window
// cap — the mechanics behind the paper's 9.7M-transaction crawl. Pacing
// and retries run through the crawler package, so its rate-limiter wait
// and retry metrics cover this client. Safe for concurrent use.
type Client struct {
	// BaseURL is the server root (no trailing /api).
	BaseURL string
	// APIKey identifies the rate-limit bucket.
	APIKey string
	// HTTPClient defaults to a 30s-timeout client.
	HTTPClient *http.Client
	// PageSize rows per request; defaults to 1000.
	PageSize int
	// MinInterval between requests; defaults to 1/DefaultRatePerSecond.
	// Zero disables pacing.
	MinInterval time.Duration
	// MaxRetries per request on rate-limit or transport errors.
	MaxRetries int
	// Sleep is indirected for tests; defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Breaker, when set, circuit-breaks requests to this source: a run
	// of transport failures opens it and requests fail fast (with a
	// retryable cooldown hint) until a probe succeeds.
	Breaker *crawler.Breaker
	// Adaptive, when set, replaces MinInterval pacing with AIMD control:
	// it paces and bounds in-flight requests from server feedback
	// (429/503 + Retry-After, latency).
	Adaptive *crawler.Adaptive
	// Budget, when set, caps retry amplification: retries draw tokens
	// refilled by successful first attempts, and a dry budget fails fast
	// instead of hammering a broadly failing source.
	Budget *crawler.RetryBudget
	// Hedger, when set, duplicates idempotent GETs whose first attempt
	// outlives the tail-latency estimate, taking the first answer. It is
	// gated off while the breaker is not closed or the budget is low.
	Hedger *crawler.Hedger
	// ClientID, when non-empty, is sent as X-Client-ID so server-side
	// per-client quotas key on a stable identity.
	ClientID string

	mu          sync.Mutex
	lim         *crawler.Limiter
	limInterval time.Duration
}

// NewClient returns a client with defaults.
func NewClient(baseURL, apiKey string) *Client {
	return &Client{
		BaseURL:     baseURL,
		APIKey:      apiKey,
		HTTPClient:  &http.Client{Timeout: 30 * time.Second},
		PageSize:    1000,
		MinInterval: time.Second / DefaultRatePerSecond,
		MaxRetries:  6,
	}
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ErrRateLimited is wrapped by errors returned when the server keeps
// answering with its rate-limit message after all retries.
var ErrRateLimited = fmt.Errorf("etherscan: rate limited")

// limiter returns the pacing limiter for the current MinInterval,
// rebuilding it when the interval changes (callers tune MinInterval
// after NewClient, before crawling). Nil means pacing is disabled.
func (c *Client) limiter() *crawler.Limiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.MinInterval <= 0 {
		c.lim, c.limInterval = nil, 0
		return nil
	}
	if c.lim == nil || c.limInterval != c.MinInterval {
		c.lim = crawler.NewLimiter(float64(time.Second)/float64(c.MinInterval), 1)
		c.limInterval = c.MinInterval
	}
	return c.lim
}

// call performs one API request with pacing and retries, returning the raw
// result payload.
func (c *Client) call(ctx context.Context, params url.Values) (json.RawMessage, error) {
	params.Set("apikey", c.APIKey)
	endpoint := strings.TrimSuffix(c.BaseURL, "/") + "/api?" + params.Encode()

	// One logical API call is one span; its retry attempts become child
	// spans under it, and the traceparent each attempt sends ties the
	// server-side request records into the same stored trace.
	ctx, sp := trace.Start(ctx, "etherscan.call")
	if sp != nil {
		sp.Annotate("module", params.Get("module"))
		sp.Annotate("action", params.Get("action"))
	}

	attempts := c.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	cfg := crawler.RetryConfig{
		Attempts:  attempts,
		BaseDelay: 200 * time.Millisecond,
		MaxDelay:  10 * time.Second,
		Sleep:     c.Sleep,
		Budget:    c.Budget,
	}
	var result json.RawMessage
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
		} else if lim := c.limiter(); lim != nil {
			if err := lim.Wait(ctx); err != nil {
				return crawler.Permanent(err)
			}
		}
		m().clientRequests.Inc()
		start := time.Now()
		// The GET is idempotent, so it may be hedged: a duplicate fires
		// if this attempt outlives the tail-latency estimate, and the
		// first answer wins. The pair runs under the single Adaptive
		// slot already acquired — hedge volume is bounded by the retry
		// budget, not the AIMD window.
		env, err := crawler.Hedge(ctx, c.Hedger, func(ctx context.Context) (*envelope, error) {
			return c.doOnce(ctx, endpoint)
		})
		// Classify NOTOK envelopes before Observe/Record: an HTTP-200
		// "Max rate limit reached" is Etherscan's 429, and the adaptive
		// controller and breaker must see it as a shed, not a success.
		if err == nil && env.Message == "NOTOK" {
			var msg string
			_ = json.Unmarshal(env.Result, &msg)
			if strings.Contains(msg, "rate limit") {
				m().clientRateLimited.Inc()
				err = crawler.RetryAfter(fmt.Errorf("%w: %s", ErrRateLimited, msg), 0)
			} else {
				m().clientErrors.Inc()
				err = crawler.Permanent(fmt.Errorf("etherscan: API error: %s", msg))
			}
		} else if err != nil {
			m().clientErrors.Inc()
		}
		if a := c.Adaptive; a != nil {
			a.Release()
			a.Observe(err, time.Since(start))
		}
		if b := c.Breaker; b != nil {
			b.Record(err)
		}
		if err != nil {
			return err
		}
		result = env.Result
		return nil
	})
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	return result, nil
}

func (c *Client) doOnce(ctx context.Context, endpoint string) (*envelope, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint, nil)
	if err != nil {
		return nil, err
	}
	overload.SetRequestHeaders(req, c.ClientID)
	trace.Inject(req)
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := httpjson.ReadBody(resp.Body, 64<<20)
	if err != nil {
		return nil, err
	}
	defer httpjson.PutSlice(body) // env.Result is a copy, not an alias
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("etherscan: HTTP %d", resp.StatusCode)
		if d, ok := crawler.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return nil, crawler.RetryAfter(err, d)
		}
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(*body, &env); err != nil {
		return nil, fmt.Errorf("etherscan: decode: %w", err)
	}
	return &env, nil
}

// TxList retrieves the complete transaction list of an address, walking
// startblock forward whenever the page window is exhausted.
func (c *Client) TxList(ctx context.Context, addr ethtypes.Address) ([]TxRecord, error) {
	pageSize := c.PageSize
	if pageSize <= 0 || pageSize > MaxOffset {
		pageSize = 1000
	}
	var out []TxRecord
	startBlock := uint64(0)
	seen := map[string]bool{}
	for {
		var gotAny bool
		maxPages := MaxWindow / pageSize
		for page := 1; page <= maxPages; page++ {
			params := url.Values{
				"module":     {"account"},
				"action":     {"txlist"},
				"address":    {hex0x(addr)},
				"startblock": {strconv.FormatUint(startBlock, 10)},
				"sort":       {"asc"},
				"page":       {strconv.Itoa(page)},
				"offset":     {strconv.Itoa(pageSize)},
			}
			raw, err := c.call(ctx, params)
			if err != nil {
				return nil, fmt.Errorf("txlist %s from block %d: %w", addr, startBlock, err)
			}
			var rows []TxRecord
			if err := json.Unmarshal(raw, &rows); err != nil {
				return nil, fmt.Errorf("txlist decode: %w", err)
			}
			m().clientPages.Inc()
			m().clientRows.Add(uint64(len(rows)))
			if out == nil && len(rows) > 0 {
				// The first page becomes the result in place: filtering
				// rows into their own prefix copies nothing.
				out = rows[:0]
			}
			for _, r := range rows {
				// Block-boundary re-reads can duplicate rows; the hash
				// dedups them.
				if !seen[r.Hash] {
					seen[r.Hash] = true
					out = append(out, r)
				}
			}
			gotAny = gotAny || len(rows) > 0
			if len(rows) < pageSize {
				return out, nil
			}
		}
		if !gotAny {
			return out, nil
		}
		// Window exhausted: restart from the last seen block (inclusive,
		// to catch blocks split across the window edge).
		last := out[len(out)-1]
		lb, err := strconv.ParseUint(last.BlockNumber, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("txlist: bad block number %q", last.BlockNumber)
		}
		if lb == startBlock {
			return nil, fmt.Errorf("txlist: address %s has more than %d transactions in block %d", addr, MaxWindow, lb)
		}
		startBlock = lb
	}
}

// FetchLabels retrieves the custodial label lists, with the same retry
// and breaker treatment as API calls — a transient failure on this one
// request must not abort a crawl.
func (c *Client) FetchLabels(ctx context.Context) (Labels, error) {
	attempts := c.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	cfg := crawler.RetryConfig{
		Attempts:  attempts,
		BaseDelay: 200 * time.Millisecond,
		MaxDelay:  10 * time.Second,
		Sleep:     c.Sleep,
		Budget:    c.Budget,
	}
	ctx, sp := trace.Start(ctx, "etherscan.labels")
	var labels Labels
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
		labels, err = crawler.Hedge(ctx, c.Hedger, func(ctx context.Context) (Labels, error) {
			return c.fetchLabelsOnce(ctx)
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
	return labels, err
}

func (c *Client) fetchLabelsOnce(ctx context.Context) (Labels, error) {
	endpoint := strings.TrimSuffix(c.BaseURL, "/") + "/labels"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint, nil)
	if err != nil {
		return Labels{}, crawler.Permanent(err)
	}
	overload.SetRequestHeaders(req, c.ClientID)
	trace.Inject(req)
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return Labels{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("etherscan: labels HTTP %d", resp.StatusCode)
		if d, ok := crawler.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return Labels{}, crawler.RetryAfter(err, d)
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return Labels{}, crawler.Permanent(err)
		}
		return Labels{}, err
	}
	var labels Labels
	if err := json.NewDecoder(resp.Body).Decode(&labels); err != nil {
		// Truncated or garbled payloads are transient: re-fetch.
		return Labels{}, fmt.Errorf("etherscan: labels decode: %w", err)
	}
	return labels, nil
}
