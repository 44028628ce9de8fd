package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxConns is the generator's connection budget: one per CPU of the
// two-CPU host the workloads were sized on.
const maxConns = 2

// client is the load generator's HTTP side. With a recorder it tags every
// request with an ID and records the round trip as the request's root span.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed exchange. span is the handler span's ID when the
// server is the traced in-process one.
type reply struct {
	status int
	body   []byte
	took   time.Duration
	req    uint64
	span   uint64
}

// do sends one request and reads the whole body; took spans both.
func (c *client) do(ctx context.Context, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var root *span
	if c.rec != nil {
		_, root = c.rec.start(context.Background(), "http", method+" "+routeOf(path))
		root.Req = root.ID
		req.Header.Set(reqHeader, strconv.FormatUint(root.ID, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: data, took: time.Since(start)}
	if root != nil {
		c.rec.finish(root)
		r.req = root.ID
		r.span, _ = strconv.ParseUint(resp.Header.Get(spanHeader), 10, 64)
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return r, nil
}

// routeOf drops the instance part of a removal path, so spans group by
// route.
func routeOf(path string) string {
	if strings.HasPrefix(path, "/v1/fleet/place/") {
		return "/v1/fleet/place/{node}/{name}"
	}
	return path
}

// postJSON marshals v and POSTs it.
func (c *client) postJSON(ctx context.Context, path string, v any) (reply, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	return c.do(ctx, http.MethodPost, path, body)
}

// mustOK is for set-up and check requests, which must succeed.
func mustOK(r reply, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if r.status/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return r.body, nil
}

// scrape reads /metrics into name → value for unlabelled samples.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := mustOK(c.do(ctx, http.MethodGet, "/metrics", nil))
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}
