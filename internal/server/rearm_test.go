package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ftnet/internal/wire"
)

// TestAnchorRotationColdRestore is the daemon-level regression for the
// dense-path cliff: if a fault that rotates the embedding anchor at the
// first evaluation of a session left the session off its incremental
// path, every later commit would produce a Full delta — the ring would
// answer every ?since= with 410 and watch subscribers would see
// ChangedCols == -1 until a restart. The first rotated evaluation the
// server can actually hit is a snapshot restore (construction replays
// the persisted fault set through a fresh session), so the test plants
// the rotating fault, snapshots, restarts, and asserts the restored
// daemon serves a real column delta on the very next commit.
func TestAnchorRotationColdRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) { c.SnapshotDir = dir })

	// Phase 1: plant the rotating fault and persist it.
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	rot := srv1.topos["main"].host.AnchorRotatingFault()
	if rot < 0 {
		t.Fatal("no single-node anchor-rotating fault on the test host; pick a different host")
	}
	base1 := ts1.URL + "/v1/topologies/main"
	if code, body := doJSON(t, "POST", base1+"/faults", mutationRequest{Nodes: []int{rot}}, nil); code != 200 {
		t.Fatalf("POST rotating fault %d: %d %s", rot, code, body)
	}
	if code, _ := doJSON(t, "POST", base1+"/snapshot", nil, nil); code != 200 {
		t.Fatalf("POST snapshot: %d", code)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart. Construction replays the rotating fault through
	// the session's first Reembed — the embedding comes back rotated and
	// the session must stay incremental.
	srv2, ts2 := startServer(t, cfg)
	topo := srv2.topos["main"]
	base := ts2.URL + "/v1/topologies/main"
	restored := fetchFullWire(t, base)
	if topo.metrics.restored.Load() != 1 {
		t.Fatal("restored gauge not set; the cold-restore scenario did not run")
	}
	// The restore itself is a legitimate resync boundary: the record chain
	// starts at a full record, so anything older than the restored head is
	// gone.
	if restored.Generation == 0 {
		t.Fatal("restored generation is 0; the planted fault never committed")
	}
	if code, _ := wireGet(t, fmt.Sprintf("%s/embedding?since=%d", base, restored.Generation-1)); code != http.StatusGone {
		t.Fatalf("since=%d across the restore boundary: %d, want 410", restored.Generation-1, code)
	}

	// Subscribe to the watch stream before mutating so the commit event is
	// observed exactly as a live client would see it.
	events := watchCollect(t, ts2.URL+"/v1/topologies/main/watch", 2)

	// One more fault, far from the rotating one: a warm incremental step
	// with a real column delta, not a Full rewrite.
	far := (topo.host.HostNodes()/topo.numCols/2)*topo.numCols + topo.numCols/2
	if code, body := doJSON(t, "POST", base+"/faults", mutationRequest{Nodes: []int{far}}, nil); code != 200 {
		t.Fatalf("POST far fault %d: %d %s", far, code, body)
	}
	head := fetchFullWire(t, base)
	if head.Generation != restored.Generation+1 {
		t.Fatalf("head generation %d, want %d", head.Generation, restored.Generation+1)
	}

	// ?since=restored recovers within this one commit: 200, a non-empty
	// column delta, and applying it to the restored snapshot reproduces
	// the head exactly.
	code, body := wireGet(t, fmt.Sprintf("%s/embedding?since=%d", base, restored.Generation))
	if code != 200 {
		t.Fatalf("since=%d after the post-restore commit: %d %s (410 here is the dense cliff)",
			restored.Generation, code, body)
	}
	d, err := wire.DecodeDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	if d.FromGeneration != restored.Generation || d.ToGeneration != head.Generation {
		t.Fatalf("delta spans %d..%d, want %d..%d", d.FromGeneration, d.ToGeneration, restored.Generation, head.Generation)
	}
	if len(d.Cols) == 0 {
		t.Fatal("post-restore delta has no columns; a single far fault must move at least one")
	}
	got, err := wire.Apply(restored, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, head) {
		t.Fatal("post-restore delta does not reproduce the head snapshot")
	}
	if rec := topo.snap.Load().delta; rec.full {
		t.Fatal("post-restore commit linked a full record: the session left its incremental path")
	}

	// The watch stream resumed column diffs: the baseline event for the
	// restored head bridges the restore (ChangedCols == -1 is correct
	// there), and the commit event for the new generation reports the
	// exact changed-column count.
	evs := <-events
	if evs[0].name != "commit" || evs[0].ev.Generation != restored.Generation {
		t.Fatalf("watch baseline: %s gen=%d, want commit gen=%d", evs[0].name, evs[0].ev.Generation, restored.Generation)
	}
	if evs[1].name != "commit" || evs[1].ev.Generation != head.Generation {
		t.Fatalf("watch event 1: %s gen=%d, want commit gen=%d", evs[1].name, evs[1].ev.Generation, head.Generation)
	}
	if evs[1].ev.ChangedCols != len(d.Cols) {
		t.Fatalf("watch ChangedCols = %d, want %d (== served delta columns; -1 is the dense cliff)",
			evs[1].ev.ChangedCols, len(d.Cols))
	}
}

// namedWatchEvent pairs an SSE event name with its decoded payload.
type namedWatchEvent struct {
	name string
	ev   watchEvent
}

// watchCollect subscribes to url and delivers the first n events on the
// returned channel, then disconnects. Failures are reported on t from
// the collector goroutine.
func watchCollect(t *testing.T, url string, n int) <-chan []namedWatchEvent {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		t.Fatalf("watch subscribe: %d", resp.StatusCode)
	}
	out := make(chan []namedWatchEvent, 1)
	go func() {
		defer resp.Body.Close()
		defer cancel()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var evs []namedWatchEvent
		var name string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				var ev watchEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Errorf("watch: bad event payload: %v", err)
					out <- evs
					return
				}
				evs = append(evs, namedWatchEvent{name, ev})
				if len(evs) == n {
					out <- evs
					return
				}
			}
		}
		t.Errorf("watch stream ended after %d of %d events: %v", len(evs), n, sc.Err())
		out <- evs
	}()
	return out
}
