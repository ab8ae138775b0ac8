package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftnet"
	"ftnet/internal/fterr"
	"ftnet/internal/wire"
)

// testConfig hosts one small topology (guest side 192, 49k host nodes —
// the smallest d=2 instance FitParams produces).
func testConfig(t *testing.T, mutate func(*Config)) Config {
	t.Helper()
	cfg := Config{
		Topologies: []TopologyConfig{{ID: "main", D: 2, MinSide: 64, MaxEps: 0.5}},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.Bytes()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServeRoundtrip(t *testing.T) {
	srv, ts := startServer(t, testConfig(t, nil))
	_ = srv

	// Health and info reflect the committed fault-free generation 0.
	var info topologyInfo
	code, _ := doJSON(t, "GET", ts.URL+"/v1/topologies/main", nil, &info)
	if code != 200 || info.Generation != 0 || info.FaultCount != 0 {
		t.Fatalf("info = %d %+v", code, info)
	}
	if info.Side < 64 || info.Dims != 2 || info.HostNodes <= 0 {
		t.Fatalf("host parameters: %+v", info)
	}

	// A synchronous fault report returns the covering evaluation.
	var st stateResponse
	code, _ = doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{5, 77, 1234}}, &st)
	if code != 200 {
		t.Fatalf("POST faults: %d %+v", code, st)
	}
	if st.Generation < 1 || st.FaultCount != 3 {
		t.Fatalf("state after add: %+v", st)
	}

	// The served embedding is bit-identical to a from-scratch Extract of
	// exactly its committed fault set.
	var emb embeddingResponse
	code, _ = doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding", nil, &emb)
	if code != 200 {
		t.Fatalf("GET embedding: %d", code)
	}
	if len(emb.Faults) != 3 {
		t.Fatalf("embedding faults = %v", emb.Faults)
	}
	host, err := ftnet.NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.NewFaults()
	for _, v := range emb.Faults {
		faults.Add(v)
	}
	want, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Map) != len(emb.Map) {
		t.Fatalf("map sizes: got %d want %d", len(emb.Map), len(want.Map))
	}
	for i := range want.Map {
		if want.Map[i] != emb.Map[i] {
			t.Fatalf("map differs from from-scratch Extract at %d", i)
		}
	}
	if got := fmt.Sprintf("%016x", wire.Checksum(emb.Map)); got != emb.Checksum {
		t.Fatalf("checksum mismatch: computed %s, served %s", got, emb.Checksum)
	}

	// Repair: DELETE clears, and the embedding heals back to the
	// fault-free default.
	code, _ = doJSON(t, "DELETE", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{5, 77, 1234}}, &st)
	if code != 200 || st.FaultCount != 0 {
		t.Fatalf("DELETE faults: %d %+v", code, st)
	}
	var healed embeddingResponse
	doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding", nil, &healed)
	empty, err := host.Extract(host.NewFaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := range empty.Map {
		if empty.Map[i] != healed.Map[i] {
			t.Fatalf("healed map differs from fault-free Extract at %d", i)
		}
	}
}

func TestServeValidation(t *testing.T) {
	_, ts := startServer(t, testConfig(t, nil))

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"negative index", `{"nodes":[-1]}`, 400},
		{"out of range", `{"nodes":[99999999]}`, 400},
		{"empty batch", `{"nodes":[]}`, 400},
		{"malformed json", `{"nodes":`, 400},
	} {
		resp, err := http.Post(ts.URL+"/v1/topologies/main/faults", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// The wait parameter is a strict boolean: "false" is honored as
	// async, anything unparsable is rejected instead of silently
	// becoming a blocking request.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults?wait=no", mutationRequest{Nodes: []int{1}}, nil)
	if code != 400 {
		t.Fatalf("wait=no: status %d, want 400", code)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults?wait=false", mutationRequest{Nodes: []int{1}}, nil)
	if code != 202 {
		t.Fatalf("wait=false: status %d, want 202", code)
	}
	var st stateResponse
	code, _ = doJSON(t, "POST", ts.URL+"/v1/topologies/main/reembed", nil, &st)
	if code != 200 || st.FaultCount != 1 {
		t.Fatalf("flush after async add: %d %+v", code, st)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{1}}, nil)

	// An invalid batch must not have mutated anything.
	var info topologyInfo
	doJSON(t, "GET", ts.URL+"/v1/topologies/main", nil, &info)
	if info.FaultCount != 0 {
		t.Fatalf("invalid batches leaked %d faults", info.FaultCount)
	}

	// Unknown topology.
	code, _ = doJSON(t, "GET", ts.URL+"/v1/topologies/nope/embedding", nil, nil)
	if code != 404 {
		t.Fatalf("unknown topology: %d, want 404", code)
	}
}

// TestServeNotTolerated drives the daemon into ErrNotTolerated (a fully
// faulty host column cannot be masked) and back out, checking that the
// last good snapshot keeps being served throughout and that the healed
// state is re-verified against exactly its own fault set (the pending
// churn columns survive the failed evaluation).
func TestServeNotTolerated(t *testing.T) {
	srv, ts := startServer(t, testConfig(t, nil))
	topo := srv.topos["main"]
	side := topo.host.Side()
	numCols := topo.numCols
	rows := topo.host.HostNodes() / numCols

	// One benign fault first: the retained good state.
	var st stateResponse
	code, _ := doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{17}}, &st)
	if code != 200 {
		t.Fatalf("benign add: %d", code)
	}
	goodGen := st.Generation

	// Kill an entire host column: no band family can mask every row.
	col := side / 2
	killer := make([]int, rows)
	for r := range killer {
		killer[r] = r*numCols + col
	}
	var failBody struct {
		fterr.Wire
		stateResponse
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: killer}, &failBody)
	if code != 422 {
		t.Fatalf("column kill: status %d, want 422", code)
	}
	if failBody.Message == "" || failBody.Generation != goodGen {
		t.Fatalf("422 body: %+v", failBody)
	}
	if failBody.Code != fterr.NotTolerated || failBody.Retryable {
		t.Fatalf("422 typed body: code=%q retryable=%v, want not_tolerated/terminal", failBody.Code, failBody.Retryable)
	}

	// Reads still serve the last good commit.
	var emb embeddingResponse
	doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding", nil, &emb)
	if emb.Generation != goodGen || len(emb.Faults) != 1 {
		t.Fatalf("served snapshot after failure: gen=%d faults=%d", emb.Generation, len(emb.Faults))
	}

	// Metrics record the ErrNotTolerated outcome.
	if n := topo.metrics.reembedNotTol.Load(); n == 0 {
		t.Fatal("not_tolerated counter not incremented")
	}

	// Heal the column; the next evaluation must commit and the result
	// must be bit-identical to a from-scratch Extract of the single
	// surviving fault.
	code, _ = doJSON(t, "DELETE", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: killer}, &st)
	if code != 200 || st.FaultCount != 1 {
		t.Fatalf("heal: %d %+v", code, st)
	}
	doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding", nil, &emb)
	host, err := ftnet.NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.NewFaults()
	faults.Add(17)
	want, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Map {
		if want.Map[i] != emb.Map[i] {
			t.Fatalf("healed embedding differs from from-scratch Extract at %d", i)
		}
	}
}

// TestServeBatchingPolicy exercises the triggers that evaluate
// asynchronous mutations: the periodic flush, an explicit reembed, and a
// synchronous request joining the batch.
func TestServeBatchingPolicy(t *testing.T) {
	t.Run("flush-interval", func(t *testing.T) {
		srv, ts := startServer(t, testConfig(t, func(c *Config) {
			c.FlushInterval = 30 * time.Millisecond
		}))
		topo := srv.topos["main"]
		code, _ := doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults?wait=0",
			mutationRequest{Nodes: []int{42}}, nil)
		if code != 202 {
			t.Fatalf("async POST: %d", code)
		}
		waitFor(t, "timer-triggered evaluation", func() bool {
			return topo.metrics.generation.Load() >= 1
		})
	})

	t.Run("explicit-reembed", func(t *testing.T) {
		_, ts := startServer(t, testConfig(t, func(c *Config) {
			c.FlushInterval = 0
		}))
		code, _ := doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults?wait=0",
			mutationRequest{Nodes: []int{42}}, nil)
		if code != 202 {
			t.Fatalf("async POST: %d", code)
		}
		var st stateResponse
		code, _ = doJSON(t, "POST", ts.URL+"/v1/topologies/main/reembed", nil, &st)
		if code != 200 || st.FaultCount != 1 {
			t.Fatalf("explicit reembed: %d %+v", code, st)
		}
	})

	t.Run("sync-joins", func(t *testing.T) {
		_, ts := startServer(t, testConfig(t, func(c *Config) {
			c.FlushInterval = 0 // no timer: only the synchronous request can trigger
		}))
		code, _ := doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults?wait=0",
			mutationRequest{Nodes: []int{42}}, nil)
		if code != 202 {
			t.Fatalf("async POST: %d", code)
		}
		var st stateResponse
		code, _ = doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{77}}, &st)
		if code != 200 || st.Generation != 1 || st.FaultCount != 2 {
			t.Fatalf("synchronous POST: %d %+v, want one evaluation committing both faults", code, st)
		}
	})
}

// TestServeSnapshotRestore is the snapshot/restore round trip: commit
// state, snapshot to disk, tear the daemon down, start a fresh one from
// the same directory, and demand a bit-identical embedding response.
func TestServeSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) { c.SnapshotDir = dir })

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	var st stateResponse
	code, _ := doJSON(t, "POST", ts1.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{5, 77, 1234, 40000}}, &st)
	if code != 200 {
		t.Fatalf("POST faults: %d", code)
	}
	var snapResp struct {
		stateResponse
		Path string `json:"path"`
	}
	code, _ = doJSON(t, "POST", ts1.URL+"/v1/topologies/main/snapshot", nil, &snapResp)
	if code != 200 || snapResp.Path == "" {
		t.Fatalf("POST snapshot: %d %+v", code, snapResp)
	}
	var emb1 embeddingResponse
	doJSON(t, "GET", ts1.URL+"/v1/topologies/main/embedding", nil, &emb1)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := startServer(t, cfg)
	var emb2 embeddingResponse
	doJSON(t, "GET", ts2.URL+"/v1/topologies/main/embedding", nil, &emb2)
	if emb2.Generation != emb1.Generation || emb2.Checksum != emb1.Checksum {
		t.Fatalf("restored state: gen=%d checksum=%s, want gen=%d checksum=%s",
			emb2.Generation, emb2.Checksum, emb1.Generation, emb1.Checksum)
	}
	if len(emb2.Faults) != len(emb1.Faults) {
		t.Fatalf("restored faults %v != %v", emb2.Faults, emb1.Faults)
	}
	for i := range emb1.Map {
		if emb1.Map[i] != emb2.Map[i] {
			t.Fatalf("restored embedding differs at %d", i)
		}
	}
	if srv2.topos["main"].metrics.restored.Load() != 1 {
		t.Fatal("restored gauge not set")
	}
}

// TestServeCloseFlushesPending verifies graceful shutdown: an accepted
// asynchronous mutation survives Close via the exit flush + snapshot.
func TestServeCloseFlushesPending(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) {
		c.SnapshotDir = dir
		c.FlushInterval = 0
	})
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	code, _ := doJSON(t, "POST", ts1.URL+"/v1/topologies/main/faults?wait=0", mutationRequest{Nodes: []int{123}}, nil)
	if code != 202 {
		t.Fatalf("async POST: %d", code)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := startServer(t, cfg)
	var emb embeddingResponse
	doJSON(t, "GET", ts2.URL+"/v1/topologies/main/embedding", nil, &emb)
	if len(emb.Faults) != 1 || emb.Faults[0] != 123 {
		t.Fatalf("pending mutation lost across shutdown: faults=%v", emb.Faults)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	_, ts := startServer(t, testConfig(t, nil))
	doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{9}}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`ftnetd_reembed_total{topology="main",outcome="ok"}`,
		`ftnetd_reembed_total{topology="main",outcome="not_tolerated"} 0`,
		`ftnetd_batch_mutations_sum{topology="main"}`,
		`ftnetd_faults{topology="main"} 1`,
		`ftnetd_embedding_generation{topology="main"}`,
		`ftnetd_reembed_latency_seconds_sum{topology="main"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestParseTopologySpec(t *testing.T) {
	tc, err := ParseTopologySpec("id=main,d=2,side=200,eps=0.5")
	if err != nil || tc.ID != "main" || tc.D != 2 || tc.MinSide != 200 || tc.MaxEps != 0.5 {
		t.Fatalf("parse: %+v, %v", tc, err)
	}
	tc, err = ParseTopologySpec("id=x,side=64")
	if err != nil || tc.D != 2 || tc.MaxEps != 0.5 {
		t.Fatalf("defaults: %+v, %v", tc, err)
	}
	for _, bad := range []string{
		"",                       // nothing
		"side=64",                // no id
		"id=x",                   // no side
		"id=x,side=64,zz=1",      // unknown key
		"id=x,side=64,d=one",     // bad int
		"id=a/b,side=64",         // unsafe id
		"id=x,side=64,eps=-1",    // bad eps
		"id=x,side=64,d=1",       // bad dimension
		"id=x,side=0",            // bad side
		"id=x,side=64,eps=batch", // bad float
	} {
		if _, err := ParseTopologySpec(bad); err == nil {
			t.Errorf("ParseTopologySpec(%q) accepted", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Topologies: []TopologyConfig{{ID: "a", D: 2, MinSide: 64, MaxEps: 0.5}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{},
		{Topologies: []TopologyConfig{{ID: "a", D: 2, MinSide: 64, MaxEps: 0.5}, {ID: "a", D: 2, MinSide: 64, MaxEps: 0.5}}},
		{Topologies: []TopologyConfig{{ID: "a", D: 2, MinSide: 64, MaxEps: math.NaN()}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
}

// TestServeSnapshotUncommitted pins the "recorded reality never rolls
// back" contract across restarts: faults whose evaluation failed with
// ErrNotTolerated are still part of the session state, so a snapshot +
// restart must preserve them (as pending mutations on the committed
// base), not silently forget the operator's reports.
func TestServeSnapshotUncommitted(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) {
		c.SnapshotDir = dir
		c.FlushInterval = 0 // no timer: restored pending state stays pending
	})
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	// Committed base: one benign fault.
	var st stateResponse
	code, _ := doJSON(t, "POST", ts1.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{17}}, &st)
	if code != 200 {
		t.Fatalf("benign add: %d", code)
	}
	// Recorded but uncommittable: a full host column.
	topo := srv1.topos["main"]
	numCols := topo.numCols
	rows := topo.host.HostNodes() / numCols
	killer := make([]int, rows)
	for r := range killer {
		killer[r] = r*numCols + numCols/2
	}
	code, _ = doJSON(t, "POST", ts1.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: killer}, nil)
	if code != 422 {
		t.Fatalf("column kill: %d, want 422", code)
	}
	code, _ = doJSON(t, "POST", ts1.URL+"/v1/topologies/main/snapshot", nil, &st)
	if code != 200 || st.FaultCount != 1 {
		t.Fatalf("snapshot: %d %+v (committed state must be the benign fault only)", code, st)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the killer column must still be known. A flush evaluates
	// the restored pending delta and reports it as still not tolerated.
	srv2, ts2 := startServer(t, cfg)
	if got := srv2.topos["main"].metrics.pendingRequests.Load(); got == 0 {
		t.Fatal("restored daemon shows no pending mutations")
	}
	code, _ = doJSON(t, "POST", ts2.URL+"/v1/topologies/main/reembed", nil, nil)
	if code != 422 {
		t.Fatalf("reembed after restore: %d, want 422 (uncommitted faults lost?)", code)
	}
	// Healing the restored faults works and lands back on the base state.
	code, _ = doJSON(t, "DELETE", ts2.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: killer}, &st)
	if code != 200 || st.FaultCount != 1 {
		t.Fatalf("heal after restore: %d %+v", code, st)
	}
	var emb embeddingResponse
	doJSON(t, "GET", ts2.URL+"/v1/topologies/main/embedding", nil, &emb)
	host, err := ftnet.NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	faults := host.NewFaults()
	faults.Add(17)
	want, err := host.Extract(faults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Map {
		if want.Map[i] != emb.Map[i] {
			t.Fatalf("healed restored embedding differs from from-scratch Extract at %d", i)
		}
	}
}
