package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ftnet/internal/fterr"
)

// watchEvent is the payload of one SSE event on .../watch. Every event
// describes a committed, served snapshot: its generation, map checksum,
// and exact fault set (enough for a client to audit the stream against
// the serve path).
type watchEvent struct {
	Topology   string `json:"topology"`
	Generation int64  `json:"generation"`
	Checksum   string `json:"checksum"`
	Faults     []int  `json:"faults"`
	// EdgeFaults is the committed edge-fault set: canonical (u < v)
	// pairs, sorted lexicographically.
	EdgeFaults [][2]int `json:"edge_faults"`
	// ChangedCols counts the columns this generation changed; -1 when
	// unknown (the event bridges a gap — see the resync event type).
	ChangedCols int `json:"changed_cols"`
}

// edgesOrEmpty normalizes a nil edge list to an empty one, so JSON
// renders "[]" rather than "null" on every wire document.
func edgesOrEmpty(edges [][2]int) [][2]int {
	if edges == nil {
		return [][2]int{}
	}
	return edges
}

// renderWatchEvent renders one SSE frame. Marshalling a watchEvent
// cannot fail (plain ints, strings and an int slice), so errors are
// impossible by construction.
func renderWatchEvent(name string, ev watchEvent) []byte {
	data, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", name, data))
}

// handleWatch streams generation commits as server-sent events
// (text/event-stream). The protocol:
//
//   - On subscribe, one "commit" event for the current head establishes
//     the baseline. With ?since=g the baseline is replaced by catch-up:
//     one "commit" event per generation in (g, head], in order — a
//     reconnecting client passes its last seen generation and resumes
//     with no commit skipped or duplicated.
//   - Each later commit produces one "commit" event per generation, in
//     order, with no generation skipped or duplicated — the per-commit
//     records of the delta ring let a slow subscriber catch up
//     generation by generation even when the writer raced ahead.
//   - When the ring no longer covers the gap (subscriber slower than
//     DeltaRing commits, a full rewrite in between, or a ?since= from
//     before a restart), a single "resync" event carries the head state
//     instead; the client re-fetches the full embedding, exactly like a
//     410 on ?since=.
//
// The writer never blocks on subscribers: it pokes a capacity-1 signal
// channel and moves on; this handler reads published snapshots on its
// own time. The stream ends when the client disconnects or the daemon
// shuts down (DisconnectWatchers).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	since := int64(-1)
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			s.writeErr(w, fterr.New(fterr.Invalid, "server", "bad since parameter %q (want a non-negative generation)", raw))
			return
		}
		since = v
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErr(w, fterr.New(fterr.Internal, "server", "streaming unsupported by this connection"))
		return
	}
	ch := t.subscribe()
	defer t.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(data []byte) bool {
		if _, err := w.Write(data); err != nil {
			return false
		}
		fl.Flush()
		t.metrics.watchEvents.Add(1)
		return true
	}
	headEvent := func(name string, snap *Snapshot) bool {
		return emit(renderWatchEvent(name, watchEvent{
			Topology:    t.cfg.ID,
			Generation:  snap.Generation,
			Checksum:    fmt.Sprintf("%016x", snap.Checksum),
			Faults:      snap.FaultNodes,
			EdgeFaults:  edgesOrEmpty(snap.FaultEdges),
			ChangedCols: -1,
		}))
	}
	// catchUp streams one "commit" event per generation in (last, head],
	// oldest-first, from the delta ring — or a single "resync" event
	// when the ring cannot bridge the gap. Returns the new last
	// generation and whether the stream is still writable.
	catchUp := func(snap *Snapshot, last int64) (int64, bool) {
		recs, ok := deltaChain(snap, last)
		if !ok {
			return snap.Generation, headEvent("resync", snap)
		}
		for i := len(recs) - 1; i >= 0; i-- {
			if !emit(recs[i].commitEvent(t.cfg.ID)) {
				return snap.Generation, false
			}
		}
		return snap.Generation, true
	}

	snap := t.snap.Load()
	var last int64
	switch {
	case since < 0:
		// Plain subscribe: the head at subscribe time is the baseline.
		last = snap.Generation
		if !headEvent("commit", snap) {
			return
		}
	case since > snap.Generation:
		// The client saw a generation this daemon never committed — it
		// outlived a restart. Only a full refetch re-anchors it.
		if !headEvent("resync", snap) {
			return
		}
		last = snap.Generation
	case since == snap.Generation:
		// Already caught up: stream silently until the next commit.
		last = since
	default:
		var ok bool
		if last, ok = catchUp(snap, since); !ok {
			return
		}
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case <-t.stopc:
			return
		case <-s.watchc:
			return
		case <-ch:
		}
		snap := t.snap.Load()
		if snap.Generation <= last {
			continue // stale signal: this commit was already covered
		}
		var ok bool
		if last, ok = catchUp(snap, last); !ok {
			return
		}
	}
}
