package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
)

// defaultClient is shared by every HTTPBackend without an explicit
// Client. http.DefaultClient would carry no timeout at all — one shard
// that accepts the TCP connection and then hangs would pin a scatter
// goroutine forever once its context is gone — so the shared client
// bounds every phase: dial, response headers, and the whole exchange.
// The overall timeout is deliberately generous (scatters carry their
// own per-round-trip context deadlines; this is the backstop for
// callers that forget one), and the pooled transport keeps connections
// warm across the fan-out instead of re-dialing every shard per
// request.
var defaultClient = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          128,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		ExpectContinueTimeout: time.Second,
	},
}

// HTTPBackend talks to a remote opinedbd shard replica over its HTTP JSON
// API.
type HTTPBackend struct {
	// BaseURL is the replica's base address ("http://10.0.0.7:8080").
	BaseURL string
	// Client is the HTTP client; nil uses a shared pooled client with
	// sane dial/header/overall timeouts (never http.DefaultClient,
	// which has none).
	Client *http.Client
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.BaseURL }

// Do implements Backend.
func (b *HTTPBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(b.BaseURL, "/")+target, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("router: %s %s: %w", method, target, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the active trace so the replica's spans join this
	// request's trace id across the process boundary.
	trace.Inject(ctx, req.Header)
	client := b.Client
	if client == nil {
		client = defaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// LocalBackend serves one in-process shard database through the exact
// same HTTP handler a remote replica runs, so local and remote fleets are
// behaviorally indistinguishable (single-binary sharded serving, tests,
// and the benchall sharding experiment all use it).
type LocalBackend struct {
	name    string
	handler http.Handler
}

// NewLocalBackend wraps a shard database in an in-process backend.
func NewLocalBackend(name string, db *core.DB, opts server.Options) *LocalBackend {
	return &LocalBackend{name: name, handler: server.New(db, opts)}
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return b.name }

// Do implements Backend.
func (b *LocalBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("router: %s %s: %w", method, target, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Same propagation contract as the HTTP backend: in-process fleets
	// are behaviorally indistinguishable from remote ones, headers
	// included.
	trace.Inject(ctx, req.Header)
	rec := server.NewResponseBuffer()
	b.handler.ServeHTTP(rec, req)
	return rec.Status(), rec.Bytes(), nil
}

// DelayBackend injects a fixed per-request delay in front of an inner
// backend — the fault-injection seam behind `opinedbload -slow-replica`,
// the benchall replication experiment's degraded-replica arm, and the
// hedging tests. The delay honors context cancellation, so a hedge
// winner cancels the delayed loser without waiting out the injected
// latency.
type DelayBackend struct {
	Inner Backend
	Delay time.Duration
}

// Name implements Backend.
func (b *DelayBackend) Name() string { return b.Inner.Name() + "+delay" }

// Do implements Backend.
func (b *DelayBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	if b.Delay > 0 {
		t := time.NewTimer(b.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	return b.Inner.Do(ctx, method, target, body)
}
