package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ftnet/internal/fterr"
	"ftnet/internal/wire"
)

// TestErrorTaxonomyExhaustive enumerates every code in the taxonomy
// through the server's single error choke point (writeErr) and asserts
// the full mechanical contract: code -> HTTP status, the typed JSON
// body {code, message, retryable, resync_from} without the retired
// "error" key, and the per-code ftnetd_errors_total series. A code added to
// fterr without a deliberate status mapping fails here, not in
// production.
func TestErrorTaxonomyExhaustive(t *testing.T) {
	srv, ts := startServer(t, testConfig(t, nil))

	wantStatus := map[fterr.Code]int{
		fterr.Invalid:        400,
		fterr.Corrupt:        400,
		fterr.NotFound:       404,
		fterr.Conflict:       409,
		fterr.ResyncRequired: 410,
		fterr.NotTolerated:   422,
		fterr.Unavailable:    503,
		fterr.Internal:       500,
		fterr.Unknown:        500,
	}
	wantRetryable := map[fterr.Code]bool{
		fterr.Unavailable:    true,
		fterr.Internal:       true,
		fterr.ResyncRequired: true,
		fterr.Corrupt:        true,
	}
	if len(wantStatus) != len(fterr.AllCodes()) {
		t.Fatalf("taxonomy has %d codes but this test maps %d: extend the tables",
			len(fterr.AllCodes()), len(wantStatus))
	}

	for _, code := range fterr.AllCodes() {
		rec := httptest.NewRecorder()
		srv.writeErr(rec, fterr.New(code, "test", "synthetic %s failure", code))

		if rec.Code != wantStatus[code] {
			t.Errorf("%s: status %d, want %d", code, rec.Code, wantStatus[code])
		}
		if rec.Code != code.HTTPStatus() {
			t.Errorf("%s: writeErr status %d disagrees with Code.HTTPStatus %d",
				code, rec.Code, code.HTTPStatus())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q, want application/json", code, ct)
		}

		// Decode into a raw map as a real non-SDK client would: field
		// names, not Go struct tags, are the contract under test.
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: body not JSON: %v", code, err)
		}
		if got := body["code"]; got != string(code) {
			t.Errorf("%s: body code %v", code, got)
		}
		msg, _ := body["message"].(string)
		if !strings.Contains(msg, "synthetic "+string(code)) {
			t.Errorf("%s: body message %q lost the failure text", code, msg)
		}
		if legacy, present := body["error"]; present {
			t.Errorf("%s: legacy error key present (%v)", code, legacy)
		}
		gotRetry, _ := body["retryable"].(bool)
		if gotRetry != wantRetryable[code] {
			t.Errorf("%s: body retryable %v, want %v", code, gotRetry, wantRetryable[code])
		}
		if gotRetry != code.Retryable() {
			t.Errorf("%s: body retryable disagrees with Code.Retryable %v", code, code.Retryable())
		}
		if _, present := body["resync_from"]; present {
			t.Errorf("%s: resync_from present on a non-resync response", code)
		}
	}

	// Off-taxonomy codes (a future server release, a corrupted body)
	// degrade to the conservative defaults: 500, terminal.
	rec := httptest.NewRecorder()
	srv.writeErr(rec, fterr.New(fterr.Code("quota_exceeded_v9"), "test", "novel"))
	if rec.Code != 500 {
		t.Errorf("off-taxonomy code: status %d, want 500", rec.Code)
	}
	var novel fterr.Wire
	if err := json.Unmarshal(rec.Body.Bytes(), &novel); err != nil || novel.Retryable {
		t.Errorf("off-taxonomy code: body %+v err %v, want non-retryable", novel, err)
	}

	// Every write above went through the metrics choke point: the
	// exposition must show a positive series per taxonomy code (the
	// off-taxonomy write folds into unknown).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readBody(t, resp)
	resp.Body.Close()
	for _, code := range fterr.AllCodes() {
		series := fmt.Sprintf("ftnetd_errors_total{code=%q} ", string(code))
		i := strings.Index(metrics, series)
		if i < 0 {
			t.Errorf("metrics: series for %s missing", code)
			continue
		}
		rest := metrics[i+len(series):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			rest = rest[:nl]
		}
		if rest == "0" {
			t.Errorf("metrics: ftnetd_errors_total{code=%q} still 0 after writeErr", code)
		}
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestErrorPathResyncFrom drives the real 410 path end to end: with a
// one-slot delta ring, any ?since= older than the head's immediate
// predecessor is unbridgeable, and the typed body must carry
// resync_from naming exactly the head generation the client should
// full-fetch — which must then succeed.
func TestErrorPathResyncFrom(t *testing.T) {
	_, ts := startServer(t, testConfig(t, func(c *Config) { c.DeltaRing = 1 }))

	// Three committed generations; the ring only bridges head-1 -> head.
	var st stateResponse
	for i, node := range []int{11, 222, 3333} {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/topologies/main/faults",
			mutationRequest{Nodes: []int{node}}, &st); code != 200 {
			t.Fatalf("mutation %d: status %d", i, code)
		}
	}
	head := st.Generation
	if head < 3 {
		t.Fatalf("expected >= 3 generations, head is %d", head)
	}

	resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/topologies/main/embedding?since=%d", head-2))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	resp.Body.Close()
	if resp.StatusCode != 410 {
		t.Fatalf("evicted since: status %d, want 410 (body %s)", resp.StatusCode, body)
	}
	var w fterr.Wire
	if err := json.Unmarshal([]byte(body), &w); err != nil {
		t.Fatalf("410 body not typed: %v (%s)", err, body)
	}
	if w.Code != fterr.ResyncRequired || !w.Retryable {
		t.Fatalf("410 typed body: %+v, want resync_required/retryable", w)
	}
	if w.ResyncFrom != head {
		t.Fatalf("410 resync_from %d, want head %d", w.ResyncFrom, head)
	}

	// The prescribed recovery works: a full fetch serves the named head.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/topologies/main/embedding", nil)
	req.Header.Set("Accept", wire.ContentType)
	full, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, full)
	full.Body.Close()
	snap, err := wire.DecodeSnapshot([]byte(raw))
	if err != nil {
		t.Fatalf("full fetch after 410: %v", err)
	}
	if snap.Generation != w.ResyncFrom {
		t.Fatalf("full fetch serves generation %d, resync_from said %d", snap.Generation, w.ResyncFrom)
	}
}
