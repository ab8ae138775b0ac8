package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ftnet/internal/fterr"
	"ftnet/internal/server"
	"ftnet/internal/wire"
)

// startDaemon hosts one small topology on an httptest server.
func startDaemon(t *testing.T, mutate func(*server.Config)) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := server.Config{
		Topologies: []server.TopologyConfig{{ID: "main", D: 2, MinSide: 64, MaxEps: 0.5}},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func newClient(t *testing.T, baseURL string, mutate func(*Options)) *Client {
	t.Helper()
	opts := Options{
		BaseURL:     baseURL,
		Topology:    "main",
		MaxRetries:  6,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Seed:        7,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSDKRoundtrip(t *testing.T) {
	_, ts := startDaemon(t, nil)
	c := newClient(t, ts.URL, nil)
	ctx := context.Background()

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "main" || info.Dims != 2 || info.Side < 64 {
		t.Fatalf("unexpected info: %+v", info)
	}

	// Prime the incremental engine: the first commit after construction
	// is always a full rewrite (a resync boundary), later ones are
	// column deltas.
	if _, err := c.AddFaults(ctx, 77); err != nil {
		t.Fatal(err)
	}
	snap0, err := c.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.AddFaults(ctx, 10, 5000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation <= snap0.Generation || st.FaultCount != 4 {
		t.Fatalf("add faults state: %+v (baseline generation %d)", st, snap0.Generation)
	}

	snap, err := c.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation < st.Generation {
		t.Fatalf("synced generation %d below committed %d", snap.Generation, st.Generation)
	}
	if got := fmt.Sprintf("%016x", snap.Checksum); got != st.Checksum {
		t.Fatalf("synced checksum %s, committed %s", got, st.Checksum)
	}
	stats := c.Stats()
	if stats.DeltaApplies != 1 || stats.FullFetches != 1 {
		t.Fatalf("expected 1 full fetch + 1 delta apply, got %+v", stats)
	}
	if stats.StaleReads != 0 || stats.Resyncs != 0 {
		t.Fatalf("clean run should have no stale reads or resyncs: %+v", stats)
	}

	if _, err := c.ClearFaults(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reembed(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSDKTypedErrors(t *testing.T) {
	_, ts := startDaemon(t, nil)
	c := newClient(t, ts.URL, nil)
	ctx := context.Background()

	// A terminal error returns immediately, coded, with no retries.
	_, err := c.AddFaults(ctx, -1)
	if !fterr.Is(err, fterr.Invalid) {
		t.Fatalf("out-of-range fault: want %s, got %v", fterr.Invalid, err)
	}
	if fterr.Retryable(err) {
		t.Fatalf("invalid_argument must not be retryable: %v", err)
	}
	if n := c.Stats().Retries; n != 0 {
		t.Fatalf("terminal error burned %d retries", n)
	}

	missing := newClient(t, ts.URL, func(o *Options) { o.Topology = "nope" })
	if _, err := missing.Info(ctx); !fterr.Is(err, fterr.NotFound) {
		t.Fatalf("missing topology: want %s, got %v", fterr.NotFound, err)
	}
}

func TestSDKRetriesUnavailable(t *testing.T) {
	_, ts := startDaemon(t, nil)
	var failures atomic.Int64
	failures.Store(3)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(fterr.Wire{Code: fterr.Unavailable, Message: "warming up", Retryable: true})
			return
		}
		resp, err := http.Get(ts.URL + r.URL.String())
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	defer flaky.Close()

	c := newClient(t, flaky.URL, nil)
	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "main" {
		t.Fatalf("unexpected info: %+v", info)
	}
	if got := c.Stats().Retries; got != 3 {
		t.Fatalf("expected exactly 3 retries, got %d", got)
	}
}

func TestSDKRetriesAreBounded(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(fterr.Wire{Code: fterr.Unavailable, Message: "down", Retryable: true})
	}))
	defer down.Close()
	c := newClient(t, down.URL, func(o *Options) { o.MaxRetries = 2 })
	_, err := c.Info(context.Background())
	if !fterr.Is(err, fterr.Unavailable) {
		t.Fatalf("want %s, got %v", fterr.Unavailable, err)
	}
	if got := c.Stats().Requests; got != 3 {
		t.Fatalf("MaxRetries=2 should issue exactly 3 attempts, issued %d", got)
	}
}

func TestSDKResyncOnEviction(t *testing.T) {
	_, ts := startDaemon(t, func(cfg *server.Config) { cfg.DeltaRing = 1 })
	c := newClient(t, ts.URL, nil)
	ctx := context.Background()

	if _, err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Three sequential committed batches outrun a ring of one: the next
	// ?since= lands on an evicted generation and must 410.
	for i, node := range []int{100, 7000, 30000} {
		if _, err := c.AddFaults(ctx, node); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	st, err := c.Reembed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation < st.Generation {
		t.Fatalf("synced generation %d below committed %d", snap.Generation, st.Generation)
	}
	stats := c.Stats()
	if stats.Resyncs == 0 {
		t.Fatalf("eviction should have forced a resync: %+v", stats)
	}
	if stats.FullFetches != 2 {
		t.Fatalf("expected the initial and the resync full fetch, got %+v", stats)
	}
	if got := fmt.Sprintf("%016x", snap.Checksum); got != st.Checksum {
		t.Fatalf("resynced checksum %s, committed %s", got, st.Checksum)
	}
}

// corruptingProxy forwards to inner and flips one byte of the response
// body while armed. It corrupts any content type — the SDK must catch
// binary corruption via checksums and JSON corruption via decode.
type corruptingProxy struct {
	inner http.Handler
	armed atomic.Bool
}

func (p *corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !p.armed.Load() {
		p.inner.ServeHTTP(w, r)
		return
	}
	p.armed.Store(false)
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if len(body) > 0 {
		body[len(body)/2] ^= 0x01
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestSDKRecoversFromCorruptPayload(t *testing.T) {
	srv, err := server.New(server.Config{
		Topologies: []server.TopologyConfig{{ID: "main", D: 2, MinSide: 64, MaxEps: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &corruptingProxy{inner: srv.Handler()}
	ts := httptest.NewServer(proxy)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := newClient(t, ts.URL, nil)
	ctx := context.Background()

	// Prime past the engine's initial full-rewrite commit so the armed
	// corruption lands on a binary delta payload.
	if _, err := c.AddFaults(ctx, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.AddFaults(ctx, 123, 9876)
	if err != nil {
		t.Fatal(err)
	}
	// The next delta payload arrives corrupted; the SDK must detect it
	// (decode or checksum), resync, and still converge to the committed
	// state.
	proxy.armed.Store(true)
	snap, err := c.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", snap.Checksum); got != st.Checksum {
		t.Fatalf("checksum %s after corruption recovery, committed %s", got, st.Checksum)
	}
	stats := c.Stats()
	if stats.Resyncs == 0 && stats.Retries == 0 {
		t.Fatalf("corruption went unnoticed: %+v", stats)
	}
	if stats.StaleReads != 0 {
		t.Fatalf("corruption recovery produced a stale read: %+v", stats)
	}
}

func TestSDKWatchReconnectContinuity(t *testing.T) {
	_, ts := startDaemon(t, nil)
	c := newClient(t, ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	events := make(chan Event, 64)
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- c.Watch(ctx, func(ev Event) error {
			events <- ev
			return nil
		})
	}()
	next := func(what string) Event {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return Event{}
		}
	}

	base := next("baseline event")
	if base.Resync {
		t.Fatalf("baseline should be a commit, got resync: %+v", base)
	}
	st, err := c.AddFaults(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := next("first commit")
	for got.Generation < st.Generation {
		got = next("first commit")
	}
	if got.Generation != st.Generation || got.Checksum != st.Checksum {
		t.Fatalf("watch saw %+v, committed %+v", got, st)
	}

	// Sever every open connection: the stream dies mid-flight and the
	// client must reconnect with ?since=<last> — the commit made after
	// the cut arrives exactly once, with no generation skipped.
	ts.CloseClientConnections()
	st2, err := c.AddFaults(ctx, 4242)
	if err != nil {
		t.Fatal(err)
	}
	got = next("post-reconnect commit")
	for got.Generation < st2.Generation {
		if got.Generation <= st.Generation && !got.Resync {
			t.Fatalf("duplicated or regressed commit after reconnect: %+v", got)
		}
		got = next("post-reconnect commit")
	}
	if got.Generation != st2.Generation || got.Checksum != st2.Checksum {
		t.Fatalf("watch saw %+v after reconnect, committed %+v", got, st2)
	}
	if c.Stats().WatchReconnects == 0 {
		t.Fatal("connection cut did not register as a reconnect")
	}

	cancel()
	if err := <-watchDone; !fterr.Is(err, fterr.Unavailable) {
		t.Fatalf("cancelled watch should return a coded wrap of ctx.Err(), got %v", err)
	}
}

func TestSDKWatchCallbackErrorStops(t *testing.T) {
	_, ts := startDaemon(t, nil)
	c := newClient(t, ts.URL, nil)
	stop := fterr.New(fterr.Conflict, "test", "seen enough")
	err := c.Watch(context.Background(), func(ev Event) error { return stop })
	if err != stop {
		t.Fatalf("watch should surface the callback error verbatim, got %v", err)
	}
}

func TestParseErrorBody(t *testing.T) {
	// A typed body yields its code regardless of status.
	body, _ := json.Marshal(fterr.Wire{Code: fterr.ResyncRequired, Message: "gone", Retryable: true, ResyncFrom: 9})
	err := ParseErrorBody(http.StatusGone, body)
	if !fterr.Is(err, fterr.ResyncRequired) {
		t.Fatalf("typed body: want %s, got %v", fterr.ResyncRequired, err)
	}
	// An untyped body degrades to the most conservative reading of the
	// status code.
	err = ParseErrorBody(http.StatusServiceUnavailable, []byte("<html>upstream error</html>"))
	if !fterr.Is(err, fterr.Unavailable) {
		t.Fatalf("untyped 503: want %s, got %v", fterr.Unavailable, err)
	}
	err = ParseErrorBody(http.StatusTeapot, nil)
	if fterr.Retryable(err) {
		t.Fatalf("unknown 4xx must not be retryable: %v", err)
	}
	// A future code this build does not know is never blind-retried,
	// even when the body's retryable flag claims it is safe.
	err = ParseErrorBody(http.StatusBadRequest, []byte(`{"code":"quota_exceeded_v9","retryable":true}`))
	if fterr.Retryable(err) {
		t.Fatalf("unknown code must degrade to non-retryable: %v", err)
	}
	if fterr.CodeOf(err) != "quota_exceeded_v9" {
		t.Fatalf("unknown code should be preserved for logging, got %q", fterr.CodeOf(err))
	}
}

func TestApplyInPlaceRejectsMismatch(t *testing.T) {
	snap := &wire.Snapshot{Topology: "main", Generation: 3, Side: 2, Dims: 2, Map: []int{0, 1, 2, 3}}
	snap.Checksum = wire.Checksum(snap.Map)
	d := &wire.Delta{Topology: "main", FromGeneration: 4, ToGeneration: 5, Side: 2, Dims: 2}
	if err := wire.ApplyInPlace(snap, d); !fterr.Is(err, fterr.ResyncRequired) {
		t.Fatalf("generation mismatch: want %s, got %v", fterr.ResyncRequired, err)
	}
	d = &wire.Delta{
		Topology: "main", FromGeneration: 3, ToGeneration: 4, Side: 2, Dims: 2,
		Cols:     []wire.ColumnUpdate{{Col: 0, Vals: []int{9, 9}}},
		Checksum: 0xdead, // wrong on purpose
	}
	if err := wire.ApplyInPlace(snap, d); !fterr.Is(err, fterr.Corrupt) {
		t.Fatalf("checksum mismatch: want %s, got %v", fterr.Corrupt, err)
	}
}
