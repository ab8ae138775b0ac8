package fterr

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Every code must have exactly one class and one status; the switch
// defaults make the functions total, but the taxonomy itself must not
// silently rely on them for known codes.
func TestCodeClassAndStatusTotal(t *testing.T) {
	wantStatus := map[Code]int{
		Invalid:        400,
		Corrupt:        400,
		NotFound:       404,
		Conflict:       409,
		ResyncRequired: 410,
		NotTolerated:   422,
		Unavailable:    503,
		Internal:       500,
		Unknown:        500,
	}
	wantClass := map[Code]Class{
		Invalid:        ClassTerminal,
		NotFound:       ClassTerminal,
		NotTolerated:   ClassTerminal,
		Conflict:       ClassTerminal,
		Unknown:        ClassTerminal,
		Unavailable:    ClassRetryable,
		Internal:       ClassRetryable,
		ResyncRequired: ClassResync,
		Corrupt:        ClassResync,
	}
	codes := AllCodes()
	if len(codes) != len(wantStatus) {
		t.Fatalf("AllCodes has %d codes, mapping table has %d", len(codes), len(wantStatus))
	}
	seen := map[Code]bool{}
	for _, c := range codes {
		if seen[c] {
			t.Fatalf("duplicate code %q in AllCodes", c)
		}
		seen[c] = true
		if got := c.HTTPStatus(); got != wantStatus[c] {
			t.Errorf("%s: HTTPStatus = %d, want %d", c, got, wantStatus[c])
		}
		if got := c.Class(); got != wantClass[c] {
			t.Errorf("%s: Class = %v, want %v", c, got, wantClass[c])
		}
		if got, want := c.Retryable(), wantClass[c] != ClassTerminal; got != want {
			t.Errorf("%s: Retryable = %v, want %v", c, got, want)
		}
	}
}

func TestCodeForStatusRoundTrip(t *testing.T) {
	// The status a code maps to must fall back to a code of the same
	// class (the conservative-client contract): a lost body never
	// upgrades a terminal failure to retryable.
	for _, c := range AllCodes() {
		back := CodeForStatus(c.HTTPStatus())
		if back.Class() == ClassTerminal && c.Class() != ClassTerminal {
			// 400 covers both Invalid (terminal) and Corrupt (resync);
			// losing the body downgrades Corrupt to terminal — allowed
			// (conservative), the reverse is not.
			if c != Corrupt {
				t.Errorf("%s (class %v) -> status %d -> %s (terminal): retryability lost non-conservatively",
					c, c.Class(), c.HTTPStatus(), back)
			}
			continue
		}
		if c.Class() == ClassTerminal && back.Class() != ClassTerminal {
			// Unknown shares 500 with Internal; a bodyless 500 is
			// indistinguishable from a server crash, so the fallback
			// treats it as one. Every other terminal code must stay
			// terminal through a lost body.
			if c != Unknown {
				t.Errorf("%s (terminal) -> status %d -> %s (class %v): terminal failure became actionable",
					c, c.HTTPStatus(), back, back.Class())
			}
		}
	}
	if got := CodeForStatus(200); got != Unknown {
		t.Errorf("CodeForStatus(200) = %s, want unknown", got)
	}
	if got := CodeForStatus(502); got != Internal {
		t.Errorf("CodeForStatus(502) = %s, want internal", got)
	}
	if got := CodeForStatus(429); got != Unavailable {
		t.Errorf("CodeForStatus(429) = %s, want unavailable", got)
	}
}

func TestCodeOfWalksChain(t *testing.T) {
	base := errors.New("disk on fire")
	err := Wrap(Internal, "server.eval", base)
	if got := CodeOf(err); got != Internal {
		t.Fatalf("CodeOf = %s, want internal", got)
	}
	// fmt.Errorf %w wrapping above an E keeps the code reachable.
	wrapped := fmt.Errorf("context: %w", err)
	if got := CodeOf(wrapped); got != Internal {
		t.Fatalf("CodeOf through %%w = %s, want internal", got)
	}
	if !errors.Is(wrapped, base) {
		t.Fatal("errors.Is lost the cause through E")
	}
	// Outermost code wins when codes are layered (re-classification at
	// a boundary is intentional).
	reclassified := Wrap(Unavailable, "client.do", err)
	if got := CodeOf(reclassified); got != Unavailable {
		t.Fatalf("CodeOf layered = %s, want unavailable (outermost)", got)
	}
	if CodeOf(nil) != "" {
		t.Fatal("CodeOf(nil) must be empty")
	}
	if got := CodeOf(errors.New("bare")); got != Unknown {
		t.Fatalf("CodeOf(bare) = %s, want unknown", got)
	}
	// Joined errors: first coded branch wins.
	joined := errors.Join(errors.New("bare"), New(NotFound, "lookup", "no such topology"))
	if got := CodeOf(joined); got != NotFound {
		t.Fatalf("CodeOf(join) = %s, want not_found", got)
	}
}

type coderErr struct{ c Code }

func (e coderErr) Error() string { return "domain error" }
func (e coderErr) FtCode() Code  { return e.c }

func TestCoderInterface(t *testing.T) {
	err := fmt.Errorf("boundary: %w", coderErr{c: NotTolerated})
	if got := CodeOf(err); got != NotTolerated {
		t.Fatalf("CodeOf(Coder) = %s, want not_tolerated", got)
	}
	if Retryable(err) {
		t.Fatal("not_tolerated must not be retryable")
	}
}

func TestRetryableAndIs(t *testing.T) {
	if Retryable(nil) {
		t.Fatal("nil is not retryable")
	}
	if Retryable(errors.New("bare")) {
		t.Fatal("uncoded errors must default to non-retryable")
	}
	if !Retryable(New(Unavailable, "op", "busy")) {
		t.Fatal("unavailable must be retryable")
	}
	if !Retryable(New(ResyncRequired, "op", "evicted")) {
		t.Fatal("resync class counts as retryable (actionable without new input)")
	}
	if !Is(New(Conflict, "op", "no dir"), Conflict) {
		t.Fatal("Is failed on direct code")
	}
	if Is(nil, Conflict) {
		t.Fatal("Is(nil) must be false")
	}
}

func TestWrapNilAndMessages(t *testing.T) {
	if Wrap(Internal, "op", nil) != nil {
		t.Fatal("Wrap(nil) must be nil")
	}
	if Wrapf(Internal, "op", nil, "x") != nil {
		t.Fatal("Wrapf(nil) must be nil")
	}
	err := New(Invalid, "ftnet.AddFaults", "node %d out of range [0,%d)", 42, 10)
	msg := err.Error()
	for _, want := range []string{"ftnet.AddFaults", "invalid_argument", "node 42 out of range [0,10)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestWireJSONShape(t *testing.T) {
	data, err := json.Marshal(Wire{
		Code:      ResyncRequired,
		Message:   "generation 3 evicted",
		Retryable: true, ResyncFrom: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"code", "message", "retryable", "resync_from"} {
		if _, ok := m[k]; !ok {
			t.Errorf("wire body missing key %q in %s", k, data)
		}
	}
	// resync_from omitted when zero — keeps non-resync bodies minimal.
	data, _ = json.Marshal(Wire{Code: Invalid, Message: "bad", Retryable: false})
	if strings.Contains(string(data), "resync_from") {
		t.Errorf("zero resync_from must be omitted: %s", data)
	}
}
