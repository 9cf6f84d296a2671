package broker

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// Client is the Broker data interface of libBGPStream (§3.3.2): it
// alternates between meta-data queries to the broker and handing dump
// files to the stream. Historical queries page through the broker's
// response windows; in live mode the client blocks, polling the broker
// until a response points to new data.
type Client struct {
	// BaseURL is the broker service root, e.g. "http://localhost:8472".
	BaseURL string
	// Filters scope the query (projects, collectors, types, interval,
	// live mode).
	Filters core.Filters
	// PollInterval is the live-mode polling period (default 10s; tests
	// use milliseconds).
	PollInterval time.Duration
	// Window optionally overrides the broker's response window.
	Window time.Duration
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry governs query retries: transient failures (connection
	// errors, 5xx, 429 — honouring Retry-After) are retried with
	// jittered backoff, 4xx responses fail immediately. The zero
	// value is the resilience defaults.
	Retry resilience.Policy

	cursorStart time.Time // next intervalStart for window paging
	paged       bool      // a historical page was returned already
	addedSince  uint64    // live-mode arrival cursor
	exhausted   bool      // historical catch-up finished
	liveMode    bool
}

// NewClient builds a broker client for the given stream filters.
func NewClient(baseURL string, filters core.Filters) *Client {
	return &Client{
		BaseURL:      baseURL,
		Filters:      filters,
		PollInterval: 10 * time.Second,
	}
}

var _ core.DataInterface = (*Client)(nil)

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// query performs one /data request.
func (c *Client) query(ctx context.Context, addedSince uint64, start time.Time) (*Response, error) {
	vals := url.Values{}
	for _, p := range c.Filters.Projects {
		vals.Add("project", p)
	}
	for _, coll := range c.Filters.Collectors {
		vals.Add("collector", coll)
	}
	for _, t := range c.Filters.DumpTypes {
		vals.Add("type", string(t))
	}
	if !start.IsZero() {
		vals.Set("intervalStart", strconv.FormatInt(start.Unix(), 10))
	}
	if !c.Filters.End.IsZero() && !c.Filters.Live {
		vals.Set("intervalEnd", strconv.FormatInt(c.Filters.End.Unix(), 10))
	}
	if addedSince > 0 {
		vals.Set("dataAddedSince", strconv.FormatUint(addedSince, 10))
	}
	if c.Window > 0 {
		vals.Set("window", strconv.FormatInt(int64(c.Window/time.Second), 10))
	}
	u := c.BaseURL + "/data?" + vals.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("broker client: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("broker client: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A 502 gateway page is HTML, not JSON: surface the status
		// (classified transient/permanent for the retry loop, with any
		// Retry-After hint attached) instead of a baffling decode error.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("broker client: query: %w", &resilience.HTTPError{
			URL:        u,
			Status:     resp.StatusCode,
			RetryAfter: resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
		})
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("broker client: read response: %w", err)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("broker client: decode response: %w", err)
	}
	if out.Error != "" {
		return nil, fmt.Errorf("broker client: broker error: %s", out.Error)
	}
	return &out, nil
}

// queryRetry runs one query under the client's retry policy:
// transient failures are retried with backoff (and the broker's
// Retry-After hint), permanent ones surface immediately.
func (c *Client) queryRetry(ctx context.Context, addedSince uint64, start time.Time) (*Response, error) {
	var out *Response
	err := c.Retry.Do(ctx, "broker query", func(ctx context.Context) error {
		var qerr error
		out, qerr = c.query(ctx, addedSince, start)
		return qerr
	})
	return out, err
}

func toMetas(files []DumpFile) []archive.DumpMeta {
	metas := make([]archive.DumpMeta, 0, len(files))
	for _, f := range files {
		metas = append(metas, archive.DumpMeta{
			Project:   f.Project,
			Collector: f.Collector,
			Type:      archive.DumpType(f.Type),
			Time:      time.Unix(f.InitialTime, 0).UTC(),
			Duration:  time.Duration(f.Duration) * time.Second,
			URL:       f.URL,
		})
	}
	return metas
}

// startingFrom drops the leading metas (sorted by start time) that
// start before t.
func startingFrom(metas []archive.DumpMeta, t time.Time) []archive.DumpMeta {
	i := 0
	for i < len(metas) && metas[i].Time.Before(t) {
		i++
	}
	return metas[i:]
}

// NextBatch implements core.DataInterface. Historical phase: page
// through response windows until the broker has nothing more, then —
// in live mode — switch to polling with the arrival cursor; otherwise
// return io.EOF.
func (c *Client) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	if c.cursorStart.IsZero() {
		c.cursorStart = c.Filters.Start
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c.exhausted && !c.Filters.Live {
			return nil, io.EOF
		}
		var (
			resp *Response
			err  error
		)
		if c.exhausted {
			// Live polling phase: only files added since the cursor.
			resp, err = c.queryRetry(ctx, c.addedSince, time.Time{})
		} else {
			resp, err = c.queryRetry(ctx, 0, c.cursorStart)
		}
		if err != nil {
			return nil, err
		}
		if resp.MaxSeq > c.addedSince {
			c.addedSince = resp.MaxSeq
		}
		metas := toMetas(resp.DumpFiles)
		if !c.exhausted && c.paged {
			// Dumps that started before the cursor but overlap it match
			// again; the previous page already returned every one of
			// them. Only the first page keeps dumps that began before
			// Filters.Start.
			metas = startingFrom(metas, c.cursorStart)
		}
		if len(metas) > 0 {
			if !c.exhausted {
				c.paged = true
				// Advance the window cursor past the newest returned
				// dump so the next page starts after it.
				last := metas[len(metas)-1].Time.Add(time.Second)
				if last.After(c.cursorStart) {
					c.cursorStart = last
				}
				if !resp.More {
					c.exhausted = true
				}
			}
			return metas, nil
		}
		if !c.exhausted {
			c.exhausted = true
			continue
		}
		if !c.Filters.Live {
			return nil, io.EOF
		}
		// Live mode with no new data: block, then poll again
		// (§3.3.2 "libBGPStream will poll until a response from the
		// Broker points to new data").
		interval := c.PollInterval
		if interval <= 0 {
			interval = 10 * time.Second
		}
		timer := time.NewTimer(interval)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}
