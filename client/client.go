// Package client is the resilient Go SDK for ftnetd: a typed,
// self-healing wrapper over the daemon's HTTP + binary wire surface
// (PR 5/6) that encodes the recovery protocol of the fterr taxonomy so
// callers never hand-roll it.
//
// Every response error is decoded into a coded error (ftnet.CodeOf
// works on anything this package returns), and the code's class drives
// recovery mechanically:
//
//	retryable (unavailable, internal)   jittered exponential backoff,
//	                                    bounded by MaxRetries
//	resync (resync_required, corrupt)   drop local incremental state,
//	                                    full-fetch, continue
//	terminal (everything else)          returned to the caller
//
// Incremental sync (Sync) follows the delta protocol: ?since= fetches
// are applied in place and re-verified against the head checksum —
// a corrupted or misapplied delta can never become the client's state —
// and a 410 triggers an automatic full-fetch resync. Watch follows the
// SSE stream with automatic reconnection: the client passes its last
// seen generation on reconnect (?since=g), so commits are delivered
// exactly once, in order, across connection failures; an unbridgeable
// gap is surfaced as an explicit resync event, never as silently
// skipped commits.
//
// The Stats counters make the resilience auditable: the chaos e2e test
// asserts zero stale reads and bounded retries while faults are being
// injected into the server under it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftnet/internal/fterr"
	"ftnet/internal/rng"
	"ftnet/internal/wire"
)

// Options configures a Client. BaseURL and Topology are required.
type Options struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Topology is the hosted topology id.
	Topology string
	// HTTPClient overrides the transport (default: a dedicated
	// http.Client; the per-request timeout comes from RequestTimeout).
	HTTPClient *http.Client
	// RequestTimeout bounds each HTTP attempt (default 30s).
	RequestTimeout time.Duration
	// MaxRetries bounds the retry loop per logical operation (default 8).
	MaxRetries int
	// BackoffBase is the first retry's backoff (default 25ms); each
	// retry doubles it up to BackoffMax (default 2s), then a uniform
	// jitter in [0.5, 1.0) of the value is applied.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter sequence deterministically (0 means 1).
	Seed uint64
}

// State is a mutation acknowledgement: the committed generation that
// covers the request.
type State struct {
	Topology       string `json:"topology"`
	Generation     int64  `json:"generation"`
	FaultCount     int    `json:"fault_count"`
	EdgeFaultCount int    `json:"edge_fault_count"`
	Checksum       string `json:"checksum"`
}

// Info describes the hosted topology.
type Info struct {
	ID         string  `json:"id"`
	Dims       int     `json:"dims"`
	Side       int     `json:"side"`
	HostNodes  int     `json:"host_nodes"`
	Degree     int     `json:"degree"`
	Eps        float64 `json:"eps"`
	Generation int64   `json:"generation"`
	FaultCount int     `json:"fault_count"`
	EdgeFaults int     `json:"edge_fault_count"`
}

// Stats counts the client's recovery actions since construction.
// Monotone; read them with Stats().
type Stats struct {
	// Requests is the number of HTTP attempts issued.
	Requests int64
	// Retries counts attempts beyond the first for any operation.
	Retries int64
	// Resyncs counts incremental states dropped for a full refetch
	// (410 Gone, corrupt payloads, failed delta verification).
	Resyncs int64
	// FullFetches and DeltaApplies count how Sync converged.
	FullFetches  int64
	DeltaApplies int64
	// StaleReads counts observed generation regressions — a successful
	// read below a generation this client already held. The serving
	// contract makes this impossible; the chaos test asserts zero.
	StaleReads int64
	// WatchReconnects counts watch-stream reconnections.
	WatchReconnects int64
	// BytesRead counts response body bytes received (including watch
	// stream lines) — the harness's bytes-per-update accounting.
	BytesRead int64
}

// Client is a resilient ftnetd client for one topology. Safe for
// concurrent use; the incremental snapshot state is mutex-guarded.
type Client struct {
	base    string // BaseURL without trailing slash
	topo    string
	httpc   *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	backMax time.Duration

	jitterMu sync.Mutex
	jitter   *rng.PCG

	syncMu sync.Mutex
	snap   *wire.Snapshot // last synced full state, nil before first Sync

	maxGen atomic.Int64 // highest generation ever observed (stale-read fence)

	requests     atomic.Int64
	bytesRead    atomic.Int64
	retriesN     atomic.Int64
	resyncs      atomic.Int64
	fullFetches  atomic.Int64
	deltaApplies atomic.Int64
	staleReads   atomic.Int64
	reconnects   atomic.Int64
}

// New validates opts and builds a client. No request is issued.
func New(opts Options) (*Client, error) {
	if opts.BaseURL == "" {
		return nil, fterr.New(fterr.Invalid, "client.New", "BaseURL is required")
	}
	if opts.Topology == "" {
		return nil, fterr.New(fterr.Invalid, "client.New", "Topology is required")
	}
	c := &Client{
		base:    strings.TrimSuffix(opts.BaseURL, "/"),
		topo:    opts.Topology,
		httpc:   opts.HTTPClient,
		timeout: opts.RequestTimeout,
		retries: opts.MaxRetries,
		backoff: opts.BackoffBase,
		backMax: opts.BackoffMax,
	}
	if c.httpc == nil {
		c.httpc = &http.Client{}
	}
	if c.timeout <= 0 {
		c.timeout = 30 * time.Second
	}
	if c.retries <= 0 {
		c.retries = 8
	}
	if c.backoff <= 0 {
		c.backoff = 25 * time.Millisecond
	}
	if c.backMax <= 0 {
		c.backMax = 2 * time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	c.jitter = rng.NewPCG(seed, 0)
	return c, nil
}

// Stats returns a snapshot of the recovery counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:        c.requests.Load(),
		Retries:         c.retriesN.Load(),
		Resyncs:         c.resyncs.Load(),
		FullFetches:     c.fullFetches.Load(),
		DeltaApplies:    c.deltaApplies.Load(),
		StaleReads:      c.staleReads.Load(),
		WatchReconnects: c.reconnects.Load(),
		BytesRead:       c.bytesRead.Load(),
	}
}

// Generation returns the highest committed generation this client has
// observed (0 before any read).
func (c *Client) Generation() int64 { return c.maxGen.Load() }

func (c *Client) topoURL(suffix string) string {
	return c.base + "/v1/topologies/" + c.topo + suffix
}

// noteGeneration advances the stale-read fence and reports whether gen
// is a regression (a generation below one already observed).
func (c *Client) noteGeneration(gen int64) bool {
	for {
		cur := c.maxGen.Load()
		if gen >= cur {
			if c.maxGen.CompareAndSwap(cur, gen) {
				return false
			}
			continue
		}
		c.staleReads.Add(1)
		return true
	}
}

// ParseErrorBody decodes a daemon error response into a coded error.
// It is total: any body bytes produce a coded, non-nil error. A typed
// {code, message, retryable, resync_from} body yields its code; an
// undecodable or codeless body falls back to the most conservative
// code consistent with the HTTP status (fterr.CodeForStatus). The
// body's retryable flag is informational only — retryability always
// derives from the code, so an unknown future code degrades to
// terminal (never blind-retried) even if the flag claims otherwise.
func ParseErrorBody(status int, body []byte) error {
	var w fterr.Wire
	if err := json.Unmarshal(body, &w); err == nil && w.Code != "" {
		msg := w.Message
		if msg == "" {
			msg = strings.TrimSpace(string(body))
		}
		return &fterr.E{Code: w.Code, Op: "client", Msg: msg}
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 256 {
		msg = msg[:256]
	}
	if msg == "" {
		msg = http.StatusText(status)
	}
	return fterr.New(fterr.CodeForStatus(status), "client", "HTTP %d: %s", status, msg)
}

// sleepBackoff sleeps the attempt's jittered exponential backoff, or
// returns the context error if the deadline lands first.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	d := c.backoff << attempt
	if d > c.backMax || d <= 0 {
		d = c.backMax
	}
	c.jitterMu.Lock()
	f := 0.5 + 0.5*c.jitter.Float64()
	c.jitterMu.Unlock()
	d = time.Duration(float64(d) * f)
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return fterr.Wrap(fterr.Unavailable, "client.backoff", ctx.Err())
	}
}

// do issues one HTTP attempt and returns the response body. Non-2xx
// statuses come back as coded errors; transport failures are coded
// Unavailable (retryable — the daemon may be restarting).
func (c *Client) do(ctx context.Context, method, url string, body []byte, accept string) ([]byte, int, error) {
	c.requests.Add(1)
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rd)
	if err != nil {
		return nil, 0, fterr.Wrap(fterr.Invalid, "client.do", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context ended: not the server's fault, and not
			// retryable within this call tree.
			return nil, 0, fterr.Wrap(fterr.Unavailable, "client.do", ctx.Err())
		}
		return nil, 0, fterr.Wrapf(fterr.Unavailable, "client.do", err, "%s %s", method, url)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	c.bytesRead.Add(int64(len(data)))
	if err != nil {
		// Truncated mid-body (dropped connection): the payload cannot be
		// trusted; readers of binary payloads would also catch this via
		// decode, but a clean code here keeps JSON paths retrying too.
		return nil, resp.StatusCode, fterr.Wrapf(fterr.Unavailable, "client.do", err, "%s %s: truncated response", method, url)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return data, resp.StatusCode, ParseErrorBody(resp.StatusCode, data)
	}
	return data, resp.StatusCode, nil
}

// retry runs op under the taxonomy's retry policy: retryable-class
// errors back off and try again (bounded), everything else returns
// immediately. Resync-class errors return to the caller too — recovery
// there means new state, not the same request again.
func (c *Client) retry(ctx context.Context, op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || fterr.ClassOf(err) != fterr.ClassRetryable {
			return err
		}
		if attempt >= c.retries {
			return fterr.Wrapf(fterr.Unavailable, "client.retry", err, "giving up after %d retries", attempt)
		}
		c.retriesN.Add(1)
		if serr := c.sleepBackoff(ctx, attempt); serr != nil {
			return serr
		}
	}
}

// jsonOp issues a JSON request with retries and decodes a 2xx body
// into out.
func (c *Client) jsonOp(ctx context.Context, method, url string, reqBody, out any) error {
	var body []byte
	if reqBody != nil {
		var err error
		if body, err = json.Marshal(reqBody); err != nil {
			return fterr.Wrap(fterr.Invalid, "client", err)
		}
	}
	return c.retry(ctx, func() error {
		data, _, err := c.do(ctx, method, url, body, "")
		if err != nil {
			return err
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fterr.Wrapf(fterr.Corrupt, "client", err, "undecodable %s response", method)
		}
		return nil
	})
}

// Info fetches the topology's host parameters and current state.
func (c *Client) Info(ctx context.Context) (Info, error) {
	var info Info
	err := c.jsonOp(ctx, "GET", c.topoURL(""), nil, &info)
	return info, err
}

type mutationRequest struct {
	Nodes []int `json:"nodes"`
}

type edgeMutationRequest struct {
	Edges [][2]int `json:"edges"`
}

// mutate posts a node or edge fault batch (or, with a nil body, a flush)
// to the topology route path and returns the committed state covering
// it. Mutations are idempotent (the daemon folds node and edge sets), so
// retrying a batch whose response was lost is safe: re-reporting a
// faulty node or edge is a no-op.
func (c *Client) mutate(ctx context.Context, method, path string, body any) (State, error) {
	var st State
	err := c.jsonOp(ctx, method, c.topoURL(path), body, &st)
	if err == nil {
		c.noteGeneration(st.Generation)
	}
	return st, err
}

// AddFaults reports failed host nodes and returns the committed state
// covering them. A CodeNotTolerated error means the daemon recorded
// the faults but keeps serving the last good generation.
func (c *Client) AddFaults(ctx context.Context, nodes ...int) (State, error) {
	return c.mutate(ctx, "POST", "/faults", mutationRequest{Nodes: nodes})
}

// ClearFaults reports repaired host nodes.
func (c *Client) ClearFaults(ctx context.Context, nodes ...int) (State, error) {
	return c.mutate(ctx, "DELETE", "/faults", mutationRequest{Nodes: nodes})
}

// AddEdgeFaults reports failed host links as {u, v} endpoint pairs
// (either order) and returns the committed state covering them. The
// daemon validates the whole batch — endpoint range, self-loops, host
// adjacency — with all-or-nothing semantics: one bad edge rejects the
// request with CodeInvalid and none of it is applied.
func (c *Client) AddEdgeFaults(ctx context.Context, edges ...[2]int) (State, error) {
	return c.mutate(ctx, "POST", "/edge-faults", edgeMutationRequest{Edges: edges})
}

// ClearEdgeFaults reports repaired host links.
func (c *Client) ClearEdgeFaults(ctx context.Context, edges ...[2]int) (State, error) {
	return c.mutate(ctx, "DELETE", "/edge-faults", edgeMutationRequest{Edges: edges})
}

// Reembed flushes pending asynchronous mutations and evaluates now.
func (c *Client) Reembed(ctx context.Context) (State, error) {
	return c.mutate(ctx, "POST", "/reembed", nil)
}

// Snapshot asks the daemon to persist its session state to disk.
func (c *Client) Snapshot(ctx context.Context) (State, error) {
	var st State
	err := c.jsonOp(ctx, "POST", c.topoURL("/snapshot"), nil, &st)
	return st, err
}

// fetchFull fetches and verifies a full binary snapshot (one attempt;
// decode failures are coded resync-class, the sync loop refetches).
func (c *Client) fetchFull(ctx context.Context) (*wire.Snapshot, error) {
	data, _, err := c.do(ctx, "GET", c.topoURL("/embedding"), nil, wire.ContentType)
	if err != nil {
		return nil, err
	}
	snap, err := wire.DecodeSnapshot(data)
	if err != nil {
		return nil, err // wraps wire.ErrCorrupt: resync class
	}
	if snap.Topology != c.topo {
		return nil, fterr.New(fterr.Corrupt, "client.fetch", "snapshot for topology %q, want %q", snap.Topology, c.topo)
	}
	return snap, nil
}

// cloneSnap hands out a stable copy (Sync mutates the internal one).
func cloneSnap(s *wire.Snapshot) *wire.Snapshot {
	cp := *s
	cp.Faults = append([]int(nil), s.Faults...)
	cp.Edges = append([][2]int(nil), s.Edges...)
	cp.Map = append([]int(nil), s.Map...)
	return &cp
}

// Sync brings the client's embedding state to the daemon's head and
// returns a stable copy of it. The first call full-fetches; later
// calls request only the columns changed since the held generation and
// verify the patched map against the head checksum. Every resync-class
// failure (410 eviction, corrupt payload, failed verification) drops
// the incremental state and full-fetches; retryable failures back off
// and try again. The returned snapshot never regresses the generation
// of an earlier Sync (counted in Stats.StaleReads if the daemon were
// ever to serve one).
func (c *Client) Sync(ctx context.Context) (*wire.Snapshot, error) {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	var out *wire.Snapshot
	err := c.retry(ctx, func() error {
		var err error
		out, err = c.syncOnce(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cloneSnap(out), nil
}

// syncOnce is one sync attempt under syncMu: delta when possible,
// full-fetch otherwise, resync-class errors degrade to full-fetch
// immediately (they are not transient; retrying the delta would loop).
func (c *Client) syncOnce(ctx context.Context) (*wire.Snapshot, error) {
	if c.snap != nil {
		err := c.deltaOnce(ctx)
		switch {
		case err == nil:
			return c.snap, nil
		case fterr.ClassOf(err) == fterr.ClassResync:
			c.resyncs.Add(1)
			c.snap = nil // fall through to the full fetch below
		default:
			return nil, err
		}
	}
	snap, err := c.fetchFull(ctx)
	if err != nil {
		if fterr.ClassOf(err) == fterr.ClassResync {
			// A corrupt full payload: refetching is the recovery, which is
			// exactly what the retry loop does with a retryable code.
			c.resyncs.Add(1)
			return nil, fterr.Wrap(fterr.Unavailable, "client.sync", err)
		}
		return nil, err
	}
	c.fullFetches.Add(1)
	if c.noteGeneration(snap.Generation) {
		return nil, fterr.New(fterr.Unavailable, "client.sync",
			"stale read: fetched generation %d below observed %d", snap.Generation, c.maxGen.Load())
	}
	c.snap = snap
	return c.snap, nil
}

// deltaOnce fetches and applies the (held, head] delta in place.
func (c *Client) deltaOnce(ctx context.Context) error {
	url := fmt.Sprintf("%s?since=%d", c.topoURL("/embedding"), c.snap.Generation)
	data, _, err := c.do(ctx, "GET", url, nil, wire.ContentType)
	if err != nil {
		return err // 410 arrives here as coded resync_required
	}
	d, err := wire.DecodeDelta(data)
	if err != nil {
		return err // corrupt: resync class
	}
	if len(d.Cols) == 0 && d.ToGeneration == c.snap.Generation {
		return nil // already at head
	}
	// On any mismatch c.snap is left dirty and the caller must resync —
	// exactly the recovery the coded error prescribes.
	if err := wire.ApplyInPlace(c.snap, d); err != nil {
		return err
	}
	c.deltaApplies.Add(1)
	if c.noteGeneration(c.snap.Generation) {
		return fterr.New(fterr.ResyncRequired, "client.sync",
			"stale delta: patched to generation %d below observed %d", c.snap.Generation, c.maxGen.Load())
	}
	return nil
}
