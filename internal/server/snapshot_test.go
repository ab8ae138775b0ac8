package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"ftnet/internal/fterr"
)

// TestServeSnapshotIncludesAcceptedMutations pins "acknowledged means
// recorded" for snapshots: a mutation answered 202 Accepted before
// POST .../snapshot is in the file, even while the writer is inside an
// evaluation. The snapshot queues behind the mutation, and the writer
// applies both in order once the evaluation ends.
func TestServeSnapshotIncludesAcceptedMutations(t *testing.T) {
	dir := t.TempDir()
	srv, ts := startServer(t, testConfig(t, func(c *Config) {
		c.SnapshotDir = dir
		c.FlushInterval = 0
		c.MaxBatchCols = 1 << 20
	}))
	topo := srv.topos["main"]
	base := ts.URL + "/v1/topologies/main"
	if code, body := doJSON(t, "POST", base+"/faults", mutationRequest{Nodes: []int{17}}, nil); code != 200 {
		t.Fatalf("add 17: %d %s", code, body)
	}
	if code, _ := doJSON(t, "POST", base+"/faults?wait=0", mutationRequest{Nodes: []int{99}}, nil); code != 202 {
		t.Fatalf("async add 99: %d", code)
	}

	// Hold the writer inside the evaluation of a flush: once the queue
	// has drained, the writer has taken the flush and sleeps in eval.
	topo.evalDelay.Store(int64(200 * time.Millisecond))
	flush := request{kind: reqFlush, reply: make(chan result, 1)}
	if err := topo.submit(flush); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writer to take the flush", func() bool { return len(topo.reqs) == 0 })

	if code, _ := doJSON(t, "DELETE", base+"/faults?wait=0", mutationRequest{Nodes: []int{17}}, nil); code != 202 {
		t.Fatalf("async clear 17: %d", code)
	}
	if code, body := doJSON(t, "POST", base+"/snapshot", nil, nil); code != 200 {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if res := <-flush.reply; res.err != nil {
		t.Fatalf("flush: %v", res.err)
	}
	topo.evalDelay.Store(0)

	d, err := loadSnapshot(dir, "main")
	if err != nil {
		t.Fatal(err)
	}
	recorded := d.Faults
	if d.SessionFaults != nil {
		recorded = d.SessionFaults
	}
	if slices.Contains(recorded, 17) || !slices.Contains(recorded, 99) {
		t.Fatalf("snapshot records faults=%v session_faults=%v; want the accepted clear of 17 and add of 99 in it",
			d.Faults, d.SessionFaults)
	}
}

// TestServeSnapshotWriteError pins the failure path of a snapshot
// write: POST .../snapshot answers a typed 500 and leaves no temp file
// behind, and Close returns the final write's error.
func TestServeSnapshotWriteError(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(testConfig(t, func(c *Config) { c.SnapshotDir = dir }))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A non-empty directory where the snapshot file belongs makes the
	// rename fail.
	if err := os.MkdirAll(filepath.Join(snapshotPath(dir, "main"), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	var body fterr.Wire
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/topologies/main/snapshot", nil, &body); code != 500 || body.Code != fterr.Internal {
		t.Fatalf("failed snapshot write answered %d %s, want 500 %s", code, raw, fterr.Internal)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "main.tmp-*")); len(tmps) != 0 {
		t.Fatalf("failed snapshot write left temp files %v", tmps)
	}
	ts.Close()
	if err := srv.Close(); err == nil {
		t.Fatal("Close returned nil after its final snapshot write failed")
	}
}

// TestServeSnapshotV1Compat pins the v1 snapshot file format with
// uncommitted node and edge state on both sides of a restart. The
// testdata file was written by an earlier daemon that persisted from
// the HTTP goroutine. The request sequence that wrote it must write the
// same bytes today, and the file must restore: committed sets served
// first, the uncommitted delta pending as one mutation, and a flush
// committing the session sets bit-identically to a from-scratch
// extraction.
func TestServeSnapshotV1Compat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1_pending.json"))
	if err != nil {
		t.Fatal(err)
	}
	policy := func(dir string) Config {
		return testConfig(t, func(c *Config) {
			c.SnapshotDir = dir
			c.FlushInterval = 0
			c.MaxBatchCols = 1 << 20
		})
	}

	// Write: commit {17, 5000} and two edges, then leave an add and a
	// clear of each kind pending.
	dir := t.TempDir()
	srv, ts := startServer(t, policy(dir))
	e := hostEdges(t, srv.topos["main"], 3)
	base := ts.URL + "/v1/topologies/main"
	for _, s := range []struct {
		method, path string
		body         any
		code         int
	}{
		{"POST", "/faults", mutationRequest{Nodes: []int{17, 5000}}, 200},
		{"POST", "/edge-faults", edgeMutationRequest{Edges: e[:2]}, 200},
		{"POST", "/faults?wait=0", mutationRequest{Nodes: []int{9999}}, 202},
		{"DELETE", "/faults?wait=0", mutationRequest{Nodes: []int{17}}, 202},
		{"POST", "/edge-faults?wait=0", edgeMutationRequest{Edges: e[2:]}, 202},
		{"DELETE", "/edge-faults?wait=0", edgeMutationRequest{Edges: e[:1]}, 202},
		{"POST", "/snapshot", nil, 200},
	} {
		if code, body := doJSON(t, s.method, base+s.path, s.body, nil); code != s.code {
			t.Fatalf("%s %s: %d %s", s.method, s.path, code, body)
		}
	}
	got, err := os.ReadFile(snapshotPath(dir, "main"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("snapshot file changed:\n got  %s\n want %s", got, golden)
	}

	// Restore the v1 file.
	dir2 := t.TempDir()
	if err := os.WriteFile(snapshotPath(dir2, "main"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := startServer(t, policy(dir2))
	base2 := ts2.URL + "/v1/topologies/main"
	var emb embeddingResponse
	doJSON(t, "GET", base2+"/embedding", nil, &emb)
	if emb.Generation != 2 || !slices.Equal(emb.Faults, []int{17, 5000}) || !slices.Equal(emb.EdgeFaults, e[:2]) {
		t.Fatalf("restored head: gen=%d faults=%v edges=%v, want gen=2 faults=[17 5000] edges=%v",
			emb.Generation, emb.Faults, emb.EdgeFaults, e[:2])
	}
	if got := srv2.topos["main"].metrics.pendingRequests.Load(); got != 1 {
		t.Fatalf("restored pending mutations = %d, want 1", got)
	}
	if code, body := doJSON(t, "POST", base2+"/reembed", nil, nil); code != 200 {
		t.Fatalf("reembed after restore: %d %s", code, body)
	}
	doJSON(t, "GET", base2+"/embedding", nil, &emb)
	if emb.Generation != 3 || !slices.Equal(emb.Faults, []int{5000, 9999}) || !slices.Equal(emb.EdgeFaults, e[1:]) {
		t.Fatalf("flushed head: gen=%d faults=%v edges=%v, want gen=3 faults=[5000 9999] edges=%v",
			emb.Generation, emb.Faults, emb.EdgeFaults, e[1:])
	}
	want, err := srv2.ScratchExtract("main")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want.Map, emb.Map) {
		t.Fatal("restored and flushed embedding differs from a from-scratch extraction")
	}
}

// TestWatchCatchUpBoundedByRing pins that a watch subscriber far behind
// the head costs memory bounded by the delta ring, not by its
// generation gap: ?since=1 against a head at generation 10,000,000
// (restored from an edited snapshot file) gets one resync event and
// allocates well under the 80 MB a per-generation buffer would take.
func TestWatchCatchUpBoundedByRing(t *testing.T) {
	const head = 10_000_000
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) { c.SnapshotDir = dir })
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil { // writes the generation-0 file
		t.Fatal(err)
	}
	d, err := loadSnapshot(dir, "main")
	if err != nil {
		t.Fatal(err)
	}
	d.Generation = head
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, "main"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	evs := <-watchCollect(t, ts.URL+"/v1/topologies/main/watch?since=1", 1)
	runtime.ReadMemStats(&after)
	if len(evs) != 1 || evs[0].name != "resync" || evs[0].ev.Generation != head {
		t.Fatalf("watch ?since=1 against head %d: events %+v, want one resync at the head", head, evs)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("watch catch-up allocated %d bytes, want < 8 MB", grew)
	}
}

// TestSnapshotRestoreRejectsOutOfRangeGeneration: a snapshot file whose
// generation the wire codec cannot carry is corrupt, like one of another
// version. Restored, a negative generation would fail every binary
// encode until enough commits passed, and one at or above wire.MaxValue
// would be served in full payloads that no decoder accepts.
func TestSnapshotRestoreRejectsOutOfRangeGeneration(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) { c.SnapshotDir = dir })
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // writes the generation-0 file
		t.Fatal(err)
	}
	d, err := loadSnapshot(dir, "main")
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range []int64{-3, 1 << 41} {
		d.Generation = gen
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotPath(dir, "main"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(cfg)
		if err == nil {
			srv.Close()
			t.Fatalf("restore at generation %d succeeded, want a %s error", gen, fterr.Corrupt)
		}
		if !fterr.Is(err, fterr.Corrupt) {
			t.Fatalf("restore at generation %d: %v, want a %s error", gen, err, fterr.Corrupt)
		}
	}
}
