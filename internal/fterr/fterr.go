// Package fterr is the repo-wide structured error taxonomy: every
// public failure carries a stable Code, and a code determines — once,
// here, mechanically — the retry class a client should apply and the
// HTTP status the daemon maps it to. Handlers and SDKs never invent
// status codes or guess retryability from error strings again.
//
// The unit of the taxonomy is *E: a code, the operation that failed,
// an optional human message, and the wrapped cause. E satisfies the
// errors.Is/As chain contract, so sentinel comparisons
// (errors.Is(err, ftnet.ErrNotTolerated)) keep working across the
// wrapping; CodeOf walks the same chain to find the outermost code.
//
// The errcodes analyzer (internal/analysis/errcodes, run by the
// ftnetvet CI step) enforces adoption: public packages must not
// construct bare fmt.Errorf/errors.New errors.
package fterr

import "fmt"

// Code is a stable, wire-visible error code. Codes are append-only:
// clients program against them (retry classes, resync triggers), so a
// released code never changes meaning or disappears.
type Code string

const (
	// Invalid: the request itself is malformed — out-of-range node
	// index, bad parameter, undecodable body. Retrying the identical
	// input cannot succeed.
	Invalid Code = "invalid_argument"
	// NotFound: the addressed resource (topology) does not exist.
	NotFound Code = "not_found"
	// NotTolerated: the fault pattern exceeds what the construction
	// tolerates (the paper's low-probability failure event, or an
	// exhausted worst-case budget). Not a server failure and not
	// retryable as-is: the state must heal (faults repaired) before a
	// re-evaluation can commit. The daemon keeps serving the last good
	// generation.
	NotTolerated Code = "not_tolerated"
	// ResyncRequired: the requested incremental state no longer exists
	// (generation evicted from the delta ring, or a full-rewrite
	// boundary in between). The client recovers by refetching the full
	// state, then resumes incrementally.
	ResyncRequired Code = "resync_required"
	// Conflict: the operation is valid but the server's configuration
	// refuses it (e.g. snapshots requested with no snapshot dir).
	Conflict Code = "conflict"
	// Unavailable: transient server condition — shutting down,
	// overloaded, request canceled. Retry with backoff.
	Unavailable Code = "unavailable"
	// Internal: an invariant broke server-side. Retryable with backoff
	// (the daemon may recover), but bounded: persistent Internal means
	// a bug, not load.
	Internal Code = "internal"
	// Corrupt: a payload failed integrity verification — bad magic,
	// truncated varints, checksum mismatch. The holder's copy is
	// untrustworthy; recover by refetching (resync class).
	Corrupt Code = "corrupt_payload"
	// Unknown is the conservative default for errors without a code
	// (and for wire codes this build does not know): terminal, never
	// retried blindly.
	Unknown Code = "unknown"
)

// AllCodes lists every code in the taxonomy, for exhaustive mapping
// tests and metrics pre-registration. Append-only, like the taxonomy.
func AllCodes() []Code {
	return []Code{
		Invalid, NotFound, NotTolerated, ResyncRequired,
		Conflict, Unavailable, Internal, Corrupt, Unknown,
	}
}

// Class is the recovery action a code prescribes to clients.
type Class uint8

const (
	// ClassTerminal: retrying the same request cannot help; fix the
	// input or the state first.
	ClassTerminal Class = iota
	// ClassRetryable: transient; retry the identical request with
	// jittered backoff.
	ClassRetryable
	// ClassResync: local incremental state diverged or is untrusted;
	// drop it, refetch the full state, then continue.
	ClassResync
)

func (c Class) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassResync:
		return "resync"
	default:
		return "terminal"
	}
}

// Class returns the code's recovery class. Codes outside the taxonomy
// degrade to terminal — the conservative default.
func (c Code) Class() Class {
	switch c {
	case Unavailable, Internal:
		return ClassRetryable
	case ResyncRequired, Corrupt:
		return ClassResync
	default:
		return ClassTerminal
	}
}

// Retryable reports whether a client is allowed to act again without
// new input: plain retry or resync-then-retry.
func (c Code) Retryable() bool { return c.Class() != ClassTerminal }

// HTTPStatus is the daemon's mechanical code→status mapping, total
// over AllCodes (the server test enumerates it exhaustively).
func (c Code) HTTPStatus() int {
	switch c {
	case Invalid, Corrupt:
		return 400
	case NotFound:
		return 404
	case Conflict:
		return 409
	case ResyncRequired:
		return 410
	case NotTolerated:
		return 422
	case Unavailable:
		return 503
	default: // Internal, Unknown, and anything off-taxonomy
		return 500
	}
}

// CodeForStatus is the client-side fallback when a response carries no
// decodable typed body (a proxy's bare 502, a truncated reply): the
// most conservative code consistent with the status class.
func CodeForStatus(status int) Code {
	switch {
	case status == 404:
		return NotFound
	case status == 409:
		return Conflict
	case status == 410:
		return ResyncRequired
	case status == 422:
		return NotTolerated
	case status == 429 || status == 503:
		return Unavailable
	case status >= 500:
		return Internal
	case status >= 400:
		return Invalid
	default:
		return Unknown
	}
}

// E is one coded failure: what failed (Op), how it is classified
// (Code), an optional human message, and the wrapped cause.
type E struct {
	Code Code
	Op   string
	Msg  string
	Err  error
}

func (e *E) Error() string {
	s := e.Op
	if s != "" {
		s += ": "
	}
	s += "[" + string(e.Code) + "]"
	if e.Msg != "" {
		s += " " + e.Msg
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *E) Unwrap() error { return e.Err }

// New builds a coded error with a formatted message and no cause.
func New(code Code, op, format string, args ...any) error {
	return &E{Code: code, Op: op, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a code and op to a cause. A nil cause returns nil, so
// call sites can wrap unconditionally.
func Wrap(code Code, op string, err error) error {
	if err == nil {
		return nil
	}
	return &E{Code: code, Op: op, Err: err}
}

// Wrapf is Wrap with an additional formatted message.
func Wrapf(code Code, op string, err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return &E{Code: code, Op: op, Msg: fmt.Sprintf(format, args...), Err: err}
}

// Coder is implemented by error types outside this package that carry
// their own code (e.g. core.UnhealthyError), so domain types adopt the
// taxonomy without depending on fterr's wrapper.
type Coder interface{ FtCode() Code }

// CodeOf extracts the outermost code on err's chain: the first *E or
// Coder found. nil errors have no code (empty string); errors without
// any code are Unknown — conservative, terminal.
func CodeOf(err error) Code {
	if err == nil {
		return ""
	}
	for e := err; e != nil; {
		if fe, ok := e.(*E); ok {
			return fe.Code
		}
		if c, ok := e.(Coder); ok {
			return c.FtCode()
		}
		switch x := e.(type) {
		case interface{ Unwrap() error }:
			e = x.Unwrap()
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				if c := CodeOf(sub); c != Unknown && c != "" {
					return c
				}
			}
			return Unknown
		default:
			e = nil
		}
	}
	return Unknown
}

// ClassOf returns the recovery class of err's code (terminal for nil
// and uncoded errors).
func ClassOf(err error) Class { return CodeOf(err).Class() }

// Retryable reports whether err's code permits acting again without
// new input (retry or resync). Uncoded errors are not retryable.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	return CodeOf(err).Retryable()
}

// Is reports whether err carries the given code.
func Is(err error, code Code) bool { return err != nil && CodeOf(err) == code }

// Wire is the typed JSON error body every ftnetd error response
// carries (and every SDK decodes): {code, message, retryable,
// resync_from}. Responses may extend it (the 422 body embeds the
// last-good committed state alongside).
type Wire struct {
	// Code is the stable taxonomy code.
	Code Code `json:"code"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Retryable mirrors Code's class so shell scripts can branch
	// without embedding the taxonomy; SDKs with the taxonomy compiled
	// in trust the code, not this flag.
	Retryable bool `json:"retryable"`
	// ResyncFrom, on resync_required responses, is the head generation
	// the client should refetch in full (0 otherwise).
	ResyncFrom int64 `json:"resync_from,omitempty"`
}
