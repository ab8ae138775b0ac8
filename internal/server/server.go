package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ftnet"
	"ftnet/internal/fterr"
	"ftnet/internal/validate"
	"ftnet/internal/wire"
)

// maxBodyBytes bounds a mutation request body (a batch of node indices).
const maxBodyBytes = 32 << 20

// Server is the ftnetd daemon state: one topology worker per configured
// topology plus the HTTP wire protocol.
//
// Routes:
//
//	GET    /healthz                        liveness + per-topology summary
//	GET    /metrics                        Prometheus text metrics
//	GET    /v1/topologies                  list hosted topologies
//	GET    /v1/topologies/{id}             host parameters + current state
//	POST   /v1/topologies/{id}/faults      report faults  {"nodes":[...]}
//	DELETE /v1/topologies/{id}/faults      report repairs {"nodes":[...]}
//	POST   /v1/topologies/{id}/edge-faults report edge faults  {"edges":[[u,v],...]}
//	DELETE /v1/topologies/{id}/edge-faults report edge repairs {"edges":[[u,v],...]}
//	POST   /v1/topologies/{id}/reembed     flush pending mutations, evaluate now
//	GET    /v1/topologies/{id}/embedding   last committed embedding snapshot
//	GET    /v1/topologies/{id}/watch       SSE stream of generation commits
//	POST   /v1/topologies/{id}/snapshot    persist session state to disk
//
// Mutations default to synchronous (the response carries the outcome of
// the evaluation that covered the batch); ?wait=0 returns 202 Accepted
// and leaves evaluation to the batching policy.
//
// GET .../embedding speaks two encodings, negotiated via the Accept
// header: JSON (default) and the compact binary wire format (Accept:
// application/x-ftnet-wire, see internal/wire). With ?since=g it
// answers a delta — only the columns changed in (g, head] — or 410 Gone
// when g fell off the delta ring, telling the client to resync from the
// full embedding.
type Server struct {
	cfg   Config
	topos map[string]*topology
	mux   *http.ServeMux

	// errs counts every error response by fterr code (the
	// ftnetd_errors_total metric); writeErr is the single choke point.
	errs errCounters
	// chaos, when non-nil, is the fault-injection middleware state.
	chaos *chaosInjector

	// watchc, when closed, disconnects every watch stream; see
	// DisconnectWatchers.
	watchc    chan struct{}
	watchOnce sync.Once
	closeOnce sync.Once
}

// New validates cfg, builds every topology's host, restores snapshots
// when SnapshotDir holds one, commits each initial state, and starts the
// writer goroutines. The returned server is ready to serve.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		topos:  make(map[string]*topology, len(cfg.Topologies)),
		watchc: make(chan struct{}),
	}
	if cfg.Chaos.Enabled() {
		s.chaos = newChaosInjector(cfg.Chaos)
	}
	for _, tc := range cfg.Topologies {
		var restore *diskSnapshot
		if cfg.SnapshotDir != "" {
			var err error
			restore, err = loadSnapshot(cfg.SnapshotDir, tc.ID)
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
		}
		t, err := newTopology(tc, cfg, restore)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.topos[tc.ID] = t
	}
	s.mux = http.NewServeMux()
	s.routes()
	for _, t := range s.topos {
		go t.run()
	}
	return s, nil
}

// DisconnectWatchers ends every active watch stream. An SSE handler
// never returns on its own, so an http.Server.Shutdown would wait for
// them forever; call this first (the serve command does), then drain,
// then Close.
func (s *Server) DisconnectWatchers() {
	s.watchOnce.Do(func() { close(s.watchc) })
}

// Close stops every topology worker. Each writer applies what is still
// queued, flushes applied mutations and, when snapshots are configured,
// persists its topology's final state; Close returns the first write
// error. Callers should drain the HTTP server first.
func (s *Server) Close() error {
	var firstErr error
	s.closeOnce.Do(func() {
		s.DisconnectWatchers()
		for _, t := range s.topos {
			close(t.stopc)
		}
		for _, t := range s.topos {
			<-t.done
			if t.closeErr != nil && firstErr == nil {
				firstErr = t.closeErr
			}
		}
	})
	return firstErr
}

// Handler returns the daemon's HTTP handler — wrapped by the
// fault-injection middleware when chaos is configured.
func (s *Server) Handler() http.Handler {
	if s.chaos != nil {
		return s.chaos.wrap(s.mux)
	}
	return s.mux
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/topologies", s.handleList)
	s.mux.HandleFunc("GET /v1/topologies/{id}", s.handleInfo)
	s.mux.HandleFunc("POST /v1/topologies/{id}/faults", s.mutationHandler(reqAdd, false))
	s.mux.HandleFunc("DELETE /v1/topologies/{id}/faults", s.mutationHandler(reqClear, false))
	s.mux.HandleFunc("POST /v1/topologies/{id}/edge-faults", s.mutationHandler(reqAdd, true))
	s.mux.HandleFunc("DELETE /v1/topologies/{id}/edge-faults", s.mutationHandler(reqClear, true))
	s.mux.HandleFunc("POST /v1/topologies/{id}/reembed", s.handleReembed)
	s.mux.HandleFunc("GET /v1/topologies/{id}/embedding", s.handleEmbedding)
	s.mux.HandleFunc("GET /v1/topologies/{id}/watch", s.handleWatch)
	s.mux.HandleFunc("POST /v1/topologies/{id}/snapshot", s.handleSnapshot)
}

// ---------------------------------------------------------------------------
// Wire types.

type stateResponse struct {
	Topology       string `json:"topology"`
	Generation     int64  `json:"generation"`
	FaultCount     int    `json:"fault_count"`
	EdgeFaultCount int    `json:"edge_fault_count"`
	Checksum       string `json:"checksum"`
}

type acceptedResponse struct {
	Topology string `json:"topology"`
	Status   string `json:"status"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges,omitempty"`
}

type topologyInfo struct {
	ID         string  `json:"id"`
	Dims       int     `json:"dims"`
	Side       int     `json:"side"`
	HostNodes  int     `json:"host_nodes"`
	Degree     int     `json:"degree"`
	Eps        float64 `json:"eps"`
	TheoremP   float64 `json:"theorem_failure_prob"`
	Generation int64   `json:"generation"`
	FaultCount int     `json:"fault_count"`
	EdgeFaults int     `json:"edge_fault_count"`
}

type embeddingResponse struct {
	Topology   string   `json:"topology"`
	Generation int64    `json:"generation"`
	Side       int      `json:"side"`
	Dims       int      `json:"dims"`
	Checksum   string   `json:"checksum"`
	Faults     []int    `json:"faults"`
	EdgeFaults [][2]int `json:"edge_faults"`
	Map        []int    `json:"map"`
}

type columnUpdateJSON struct {
	Col  int   `json:"col"`
	Vals []int `json:"vals"`
}

// deltaResponse is the JSON form of a ?since= answer: the columns
// changed in (from_generation, generation], carrying their
// head-generation values, plus the head fault set and checksum.
type deltaResponse struct {
	Topology       string             `json:"topology"`
	FromGeneration int64              `json:"from_generation"`
	Generation     int64              `json:"generation"`
	Side           int                `json:"side"`
	Dims           int                `json:"dims"`
	Checksum       string             `json:"checksum"`
	Faults         []int              `json:"faults"`
	EdgeFaults     [][2]int           `json:"edge_faults"`
	Cols           []columnUpdateJSON `json:"cols"`
}

// RenderEmbeddingJSON writes the canonical JSON embedding document for
// s — byte-identical to what GET .../embedding serves for the same
// state — so offline tooling (cmd/ftnet wire) can diff a decoded binary
// payload against the JSON wire bit for bit.
func RenderEmbeddingJSON(w io.Writer, s *wire.Snapshot) error {
	return json.NewEncoder(w).Encode(embeddingResponse{
		Topology:   s.Topology,
		Generation: s.Generation,
		Side:       s.Side,
		Dims:       s.Dims,
		Checksum:   fmt.Sprintf("%016x", s.Checksum),
		Faults:     s.Faults,
		EdgeFaults: edgesOrEmpty(s.Edges),
		Map:        s.Map,
	})
}

type mutationRequest struct {
	Nodes []int `json:"nodes"`
}

type edgeMutationRequest struct {
	Edges [][2]int `json:"edges"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errBody renders err as the typed wire document, every error
// response's JSON body. The status and the retryable flag derive
// mechanically from the error's code — handlers never pick either.
func errBody(err error, resyncFrom int64) fterr.Wire {
	code := fterr.CodeOf(err)
	return fterr.Wire{
		Code:       code,
		Message:    err.Error(),
		Retryable:  code.Retryable(),
		ResyncFrom: resyncFrom,
	}
}

// writeErr is the single error choke point: code -> HTTP status, typed
// JSON body, and the ftnetd_errors_total counter.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	s.writeErrResync(w, err, 0)
}

// writeErrResync is writeErr for resync_required responses, carrying
// the head generation the client should full-fetch.
func (s *Server) writeErrResync(w http.ResponseWriter, err error, resyncFrom int64) {
	code := fterr.CodeOf(err)
	s.errs.inc(code)
	writeJSON(w, code.HTTPStatus(), errBody(err, resyncFrom))
}

// topo resolves the {id} path value; a miss answers 404 and returns nil.
func (s *Server) topo(w http.ResponseWriter, r *http.Request) *topology {
	id := r.PathValue("id")
	t, ok := s.topos[id]
	if !ok {
		s.writeErr(w, fterr.New(fterr.NotFound, "server", "unknown topology %q", id))
		return nil
	}
	return t
}

func stateOf(t *topology, snap *Snapshot) stateResponse {
	return stateResponse{
		Topology:       t.cfg.ID,
		Generation:     snap.Generation,
		FaultCount:     len(snap.FaultNodes),
		EdgeFaultCount: len(snap.FaultEdges),
		Checksum:       fmt.Sprintf("%016x", snap.Checksum),
	}
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type topoHealth struct {
		Generation int64 `json:"generation"`
		FaultCount int   `json:"fault_count"`
		Pending    int64 `json:"pending"`
	}
	out := struct {
		Status     string                `json:"status"`
		Topologies map[string]topoHealth `json:"topologies"`
	}{Status: "ok", Topologies: make(map[string]topoHealth, len(s.topos))}
	for id, t := range s.topos {
		snap := t.snap.Load()
		out.Topologies[id] = topoHealth{
			Generation: snap.Generation,
			FaultCount: len(snap.FaultNodes),
			Pending:    t.metrics.pendingRequests.Load(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	writeMetrics(&b, s)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := make([]topologyInfo, 0, len(s.topos))
	for _, t := range s.topos {
		out = append(out, s.infoOf(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) infoOf(t *topology) topologyInfo {
	snap := t.snap.Load()
	return topologyInfo{
		ID:         t.cfg.ID,
		Dims:       t.host.Dims(),
		Side:       t.host.Side(),
		HostNodes:  t.host.HostNodes(),
		Degree:     t.host.Degree(),
		Eps:        t.host.Eps(),
		TheoremP:   t.host.TheoremFailureProb(),
		Generation: snap.Generation,
		FaultCount: len(snap.FaultNodes),
		EdgeFaults: len(snap.FaultEdges),
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.infoOf(t))
}

// mutationHandler serves POST (report faults) and DELETE (report
// repairs) on .../faults, or on .../edge-faults when edges is set. The
// route decides which list the body carries — {"nodes":[...]} or
// {"edges":[[u,v],...]} — and that list is validated whole at the API
// boundary against the immutable host: node range, or endpoint range,
// self-loops and host adjacency. One bad entry rejects the request
// before the writer sees any of it, so a partially applied batch cannot
// exist.
func (s *Server) mutationHandler(kind reqKind, edges bool) http.HandlerFunc {
	what := "nodes"
	if edges {
		what = "edges"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.topo(w, r)
		if t == nil {
			return
		}
		var nodesBody mutationRequest
		var edgesBody edgeMutationRequest
		body := any(&nodesBody)
		if edges {
			body = &edgesBody
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(body); err != nil {
			s.writeErr(w, fterr.Wrapf(fterr.Invalid, "server", err, "bad request body"))
			return
		}
		mut := request{kind: kind, nodes: nodesBody.Nodes, edges: edgesBody.Edges}
		if len(mut.nodes)+len(mut.edges) == 0 {
			s.writeErr(w, fterr.New(fterr.Invalid, "server", "no %s in request", what))
			return
		}
		n := t.host.HostNodes()
		for _, v := range mut.nodes {
			if v < 0 || v >= n {
				s.writeErr(w, fterr.New(fterr.Invalid, "server", "host node %d out of range [0, %d)", v, n))
				return
			}
		}
		for _, e := range mut.edges {
			// t.ses.Adjacent reads only the immutable host graph, never
			// session state, so the check is safe off the writer goroutine.
			if err := validate.Edge("edge fault", e[0], e[1], n, t.ses.Adjacent); err != nil {
				s.writeErr(w, err)
				return
			}
		}
		wait := true
		if raw := r.URL.Query().Get("wait"); raw != "" {
			var err error
			if wait, err = strconv.ParseBool(raw); err != nil {
				s.writeErr(w, fterr.New(fterr.Invalid, "server", "bad wait parameter %q (want a boolean)", raw))
				return
			}
		}
		if wait {
			if res, ok := s.call(w, r, t, mut); ok {
				s.replyState(w, t, res)
			}
			return
		}
		if err := t.submit(mut); err != nil {
			s.writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, acceptedResponse{
			Topology: t.cfg.ID, Status: "accepted", Nodes: len(mut.nodes), Edges: len(mut.edges),
		})
	}
}

func (s *Server) handleReembed(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	if res, ok := s.call(w, r, t, request{kind: reqFlush}); ok {
		s.replyState(w, t, res)
	}
}

// call submits req to the topology's writer and waits for the reply.
// It reports false when no reply will come — the daemon is stopping or
// the client went away — after answering the request itself.
func (s *Server) call(w http.ResponseWriter, r *http.Request, t *topology, req request) (result, bool) {
	req.reply = make(chan result, 1)
	if err := t.submit(req); err != nil {
		s.writeErr(w, err)
		return result{}, false
	}
	select {
	case res := <-req.reply:
		return res, true
	case <-r.Context().Done():
		// Client went away; the writer's buffered reply is dropped.
		s.writeErr(w, fterr.New(fterr.Unavailable, "server", "request canceled"))
	case <-t.stopc:
		s.writeErr(w, errShutdown)
	}
	return result{}, false
}

// replyState renders the writer's outcome for a mutation or flush. A
// fault pattern beyond the construction's tolerance is the caller's
// news, not a server failure: 422, with the still-served last-good
// generation.
func (s *Server) replyState(w http.ResponseWriter, t *topology, res result) {
	switch {
	case res.err == nil:
		writeJSON(w, http.StatusOK, stateOf(t, res.snap))
	case errors.Is(res.err, ftnet.ErrNotTolerated):
		// 422 carries the typed error AND the last-good committed
		// state the daemon keeps serving: recorded reality never
		// rolls back, the caller sees exactly what still stands.
		snap := t.snap.Load()
		code := fterr.CodeOf(res.err)
		s.errs.inc(code)
		writeJSON(w, code.HTTPStatus(), struct {
			fterr.Wire
			stateResponse
		}{errBody(res.err, 0), stateOf(t, snap)})
	default:
		s.writeErr(w, fterr.Wrap(fterr.Internal, "server.eval", res.err))
	}
}

// wantsWire reports whether the client negotiated the binary encoding.
func wantsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

func writeWire(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func (s *Server) handleEmbedding(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	snap := t.snap.Load()
	binary := wantsWire(r)

	raw := r.URL.Query().Get("since")
	if raw == "" {
		if binary {
			b, err := wire.EncodeSnapshot(snap.wireSnapshot(t.cfg.ID))
			if err != nil {
				s.writeErr(w, fterr.Wrapf(fterr.Internal, "server", err, "encode embedding"))
				return
			}
			writeWire(w, b)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		RenderEmbeddingJSON(w, snap.wireSnapshot(t.cfg.ID))
		return
	}

	since, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || since < 0 {
		s.writeErr(w, fterr.New(fterr.Invalid, "server", "bad since parameter %q (want a non-negative generation)", raw))
		return
	}
	if since > snap.Generation {
		s.writeErr(w, fterr.New(fterr.Invalid, "server", "since generation %d is ahead of head generation %d", since, snap.Generation))
		return
	}
	cols, err := deltaSince(snap, since)
	if err != nil {
		// The requested diff no longer exists; never serve a stale
		// guess. resync_from tells the client which head to full-fetch.
		t.metrics.deltaResync.Add(1)
		s.writeErrResync(w, err, snap.Generation)
		return
	}
	t.metrics.deltaServed.Add(1)
	d := t.wireDelta(snap, since, cols)
	if binary {
		b, err := wire.EncodeDelta(d)
		if err != nil {
			s.writeErr(w, fterr.Wrapf(fterr.Internal, "server", err, "encode delta"))
			return
		}
		writeWire(w, b)
		return
	}
	cus := make([]columnUpdateJSON, len(d.Cols))
	for i, cu := range d.Cols {
		cus[i] = columnUpdateJSON{Col: cu.Col, Vals: cu.Vals}
	}
	writeJSON(w, http.StatusOK, deltaResponse{
		Topology:       d.Topology,
		FromGeneration: d.FromGeneration,
		Generation:     d.ToGeneration,
		Side:           d.Side,
		Dims:           d.Dims,
		Checksum:       fmt.Sprintf("%016x", d.Checksum),
		Faults:         d.Faults,
		EdgeFaults:     edgesOrEmpty(d.Edges),
		Cols:           cus,
	})
}

// handleSnapshot persists the topology from its writer, after every
// request queued ahead of this one: the file includes every mutation
// acknowledged before the snapshot was asked for.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	if t.snapDir == "" {
		s.writeErr(w, fterr.New(fterr.Conflict, "server", "snapshots disabled: no snapshot dir configured"))
		return
	}
	res, ok := s.call(w, r, t, request{kind: reqSnapshot})
	switch {
	case !ok:
	case res.err != nil:
		s.writeErr(w, fterr.Wrapf(fterr.Internal, "server", res.err, "snapshot"))
	default:
		writeJSON(w, http.StatusOK, struct {
			stateResponse
			Path string `json:"path"`
		}{stateOf(t, res.snap), snapshotPath(t.snapDir, t.cfg.ID)})
	}
}
