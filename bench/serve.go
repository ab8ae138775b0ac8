package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftnet"
	"ftnet/client"
	"ftnet/internal/churn"
	"ftnet/internal/core"
	"ftnet/internal/server"
	"ftnet/internal/wire"
)

// serveSpec is the serve workload's deployment and traffic.
type serveSpec struct {
	topology  string        // ftnet serve -topology spec
	rate      float64       // writer mutations per second (open loop)
	warmup    time.Duration // untimed start
	think     time.Duration // reader pause between polls (closed loop)
	fullEvery int           // every fullEvery-th poll is a raw JSON full GET
	proc      func(g *core.Graph) churn.Process
	shortN    int // mutations in a short run
}

// serveD2 is the README deployment, id=bench,d=2,side=64,eps=0.5 (49,152
// host nodes, a 192×192 guest), under a mixed trace calibrated once
// (seeds 1-5, 4,000 events each) to a standing effective population of
// 5.7 with 11.8% of mutations answered 422.
var serveD2 = serveSpec{
	topology:  "id=bench,d=2,side=64,eps=0.5",
	rate:      100,
	warmup:    500 * time.Millisecond,
	think:     5 * time.Millisecond,
	fullEvery: 20,
	proc:      mixedProc(1.5, 1.5, 0.15),
	shortN:    40,
}

func runServe(cfg runConfig) (*outcome, error) {
	sp := serveD2
	out := newOutcome("mutation")
	tc, err := server.ParseTopologySpec(sp.topology)
	if err != nil {
		return nil, err
	}
	params, err := core.FitParams(tc.D, tc.MinSide, tc.MaxEps)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGraph(params)
	if err != nil {
		return nil, err
	}
	warmN := int(sp.rate * sp.warmup.Seconds())
	n := warmN + int(sp.rate*cfg.seconds)
	if cfg.short {
		warmN, n = 4, sp.shortN
	}
	proc := sp.proc(g)
	trace, err := genTrace(g, proc, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	out.inputs["host"] = params.String()
	out.inputs["topology"] = sp.topology
	out.inputs["process"] = fmt.Sprintf("%+v", proc)
	out.inputs["mutations"] = fmt.Sprintf("%d at %g/s (warmup %d)", n, sp.rate, warmN)
	out.digests["trace"] = digest(trace)

	scfg := server.Config{Topologies: []server.TopologyConfig{tc}, FlushInterval: server.DefaultFlushInterval}
	var srv *server.Server
	for i := 0; i < cfg.builds; i++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, err
			}
			srv = nil
		}
		runtime.GC()
		start := time.Now()
		if srv, err = server.New(scfg); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start))
	}
	defer srv.Close()
	oracle, err := ftnet.NewRandomFaultTorus(tc.D, tc.MinSide, tc.MaxEps)
	if err != nil {
		return nil, err
	}

	var handler http.Handler = srv.Handler()
	var sh *shadow
	if cfg.trace {
		out.tr = newTracer()
		handler = serverSpans{inner: handler, tr: out.tr}
		if sh, err = newShadow(g); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Two connections, one per load goroutine.
	wt, rt := newTransport(), newTransport()
	wsdk, err := client.New(client.Options{BaseURL: base, Topology: tc.ID, HTTPClient: &http.Client{Transport: spanTransport{wt}}, MaxRetries: 1, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	rhttp := &http.Client{Transport: spanTransport{rt}}
	rsdk, err := client.New(client.Options{BaseURL: base, Topology: tc.ID, HTTPClient: rhttp, MaxRetries: 1, Seed: cfg.seed + 1})
	if err != nil {
		return nil, err
	}

	s := &serveRun{
		cfg: cfg, sp: sp, out: out, srv: srv, sh: sh, trace: trace,
		wsdk: wsdk, rsdk: rsdk, rhttp: rhttp,
		fullURL: base + "/v1/topologies/" + tc.ID + "/embedding",
		warmN:   warmN, tracedFrom: n,
	}
	if cfg.trace {
		s.tracedFrom = warmN + (n-warmN)/2
	}
	s.drive()

	// Final state: the reader's map must match the dense oracle of the
	// head's charged fault set and, once the edge faults are repaired,
	// Server.ScratchExtract (which replays node faults only).
	ctx := context.Background()
	s.finalCheck(ctx, oracle)
	s.trace, trace = nil, nil
	out.noteLive()
	runtime.KeepAlive(srv)
	if st := wsdk.Stats(); st.Retries > 0 || st.StaleReads > 0 {
		out.failed += st.Retries + st.StaleReads
		fmt.Fprintf(cfg.log, "bench: writer SDK: %d retries, %d stale reads\n", st.Retries, st.StaleReads)
	}
	if st := rsdk.Stats(); st.Retries > 0 || st.StaleReads > 0 {
		out.failed += st.Retries + st.StaleReads
		fmt.Fprintf(cfg.log, "bench: reader SDK: %d retries, %d stale reads\n", st.Retries, st.StaleReads)
	}

	shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return nil, err
	}
	if err := <-serveDone; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	wt.CloseIdleConnections()
	rt.CloseIdleConnections()
	if sh != nil {
		sh.layer(out)
	}
	return out, nil
}

func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
}

// serveRun is the state the two load goroutines share; each owns its
// own fields, and the main goroutine reads them after both have exited.
type serveRun struct {
	cfg   runConfig
	sp    serveSpec
	out   *outcome
	srv   *server.Server
	sh    *shadow
	trace []event

	wsdk, rsdk *client.Client
	rhttp      *http.Client
	fullURL    string

	warmN, tracedFrom int // mutation indices: first timed, first traced

	// Writer-owned.
	start         time.Time // first mutation's due time
	measuredEnd   time.Time
	lastState     client.State
	wAttempted    int64
	wFailed       int64
	rejected      int
	toggles       int
	before, after map[string]float64 // /metrics around the traced phase
	checkFailures []string

	// Reader-owned.
	rAttempted   int64
	rFailed      int64
	deltaBytes   int64
	deltaUpdates int64
	fullBytes    int64
	fullGets     int64
}

// drive runs the open-loop writer and the closed-loop reader until the
// writer's trace is exhausted.
func (s *serveRun) drive() {
	ctx := context.Background()
	s.start = time.Now().Add(10 * time.Millisecond)
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		s.write(ctx)
	}()
	go func() {
		defer wg.Done()
		s.read(ctx, writerDone)
	}()
	wg.Wait()
	out := s.out
	out.attempted += s.wAttempted + s.rAttempted
	out.failed += s.wFailed + s.rFailed
	out.checkFailures = append(out.checkFailures, s.checkFailures...)
	out.measured = s.measuredEnd.Sub(s.start.Add(time.Duration(s.warmN) * s.period()))
	if s.cfg.trace {
		d := func(k string) float64 { return s.after[k] - s.before[k] }
		const topo = `{topology="bench"}`
		reembed := d("ftnetd_reembed_latency_seconds_sum" + topo)
		evals := d("ftnetd_reembed_latency_seconds_count" + topo)
		out.layer["server.reembed.count"] = evals
		if evals > 0 {
			out.layer["server.batch_mutations.mean"] = d("ftnetd_batch_mutations_sum"+topo) / d("ftnetd_batch_mutations_count"+topo)
		}
		out.layer["server.delta_resync"] = d(`ftnetd_delta_requests_total{topology="bench",outcome="resync"}`)
		a := out.tr.analyze()
		if root := a[out.opRoot]; root != nil && root.total > 0 {
			out.layer["server.reembed.share"] = reembed / root.total.Seconds()
			out.layer["server.commit_other.share"] = a.share("server.mutate") - out.layer["server.reembed.share"]
		}
		out.layer["loadgen.late_share"] = a.share("loadgen.late")
		out.layer["core.rejected"] = float64(s.rejected)
		out.layer["fault.eff_toggles"] = float64(s.toggles)
		out.layer["ftnet.copy_mb"] = float64(len(s.sh.prev)) * 8 / 1e6
		if s.deltaUpdates > 0 {
			out.layer["wire.delta_bytes_per_update"] = float64(s.deltaBytes) / float64(s.deltaUpdates)
		}
		if s.fullGets > 0 {
			out.layer["wire.full_json_bytes"] = float64(s.fullBytes) / float64(s.fullGets)
		}
	}
}

func (s *serveRun) period() time.Duration {
	return time.Duration(float64(time.Second) / s.sp.rate)
}

// write replays the trace open loop: mutation i is due at start+i/rate
// and is timed from its due time, so a stall also delays every mutation
// queued behind it.
func (s *serveRun) write(ctx context.Context) {
	tr := s.out.tr
	for i := range s.trace {
		e := &s.trace[i]
		ev := int64(i)
		due := s.start.Add(time.Duration(i) * s.period())
		if i == s.tracedFrom {
			if err := s.sh.catchUp(); err != nil {
				s.checkFailures = append(s.checkFailures, err.Error())
			}
			s.before = scrapeMetrics(s.srv)
			tr.begin()
		}
		sleepUntil(due)
		traced := tr.active()
		var st client.State
		var err error
		s.wAttempted++
		if traced {
			root := tr.id()
			tr.record(tr.id(), root, ev, "loadgen.late", due, time.Now())
			tr.child(root, ev, "client.mutate", func(id int64) { st, err = mutateSDK(withSpan(ctx, id, ev), s.wsdk, e) })
			tr.record(root, 0, ev, s.out.opRoot, due, time.Now())
		} else {
			st, err = mutateSDK(ctx, s.wsdk, e)
			if i >= s.warmN {
				s.out.ops = append(s.out.ops, time.Since(due))
				s.measuredEnd = time.Now()
			}
		}
		rejected := ftnet.IsCode(err, ftnet.CodeNotTolerated)
		switch {
		case err == nil:
			s.lastState = st
		case rejected:
		default:
			s.wFailed++
			fmt.Fprintf(s.cfg.log, "bench: mutation %d: %v\n", i, err)
			continue
		}
		if traced {
			s.toggles += e.effToggles
			if rejected {
				s.rejected++
			}
		}
		if s.sh == nil {
			continue
		}
		s.sh.apply(e)
		if !traced {
			continue
		}
		m, err := s.sh.eval(tr, ev)
		switch {
		case err != nil:
			s.checkFailures = append(s.checkFailures, fmt.Sprintf("mutation %d: %v", i, err))
		case rejected != (m == nil):
			s.checkFailures = append(s.checkFailures, fmt.Sprintf("mutation %d: server rejected=%v, shadow session rejected=%v", i, rejected, m == nil))
		case m != nil && st.Checksum != fmt.Sprintf("%016x", wire.Checksum(m)):
			s.checkFailures = append(s.checkFailures, fmt.Sprintf("mutation %d: committed checksum %s differs from the shadow session's map", i, st.Checksum))
		}
	}
	if tr.active() {
		tr.finish()
		s.after = scrapeMetrics(s.srv)
	}
}

// sleepUntil waits for t: a coarse sleep first, since timer wakeups can
// land up to a millisecond late, then yields until t. An open-loop
// mutation timed from its due time would otherwise carry that wakeup
// delay in every sample.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// mutateSDK sends one event's mutations through the SDK (one request
// per non-empty list; a Gillespie step fills exactly one).
func mutateSDK(ctx context.Context, c *client.Client, e *event) (client.State, error) {
	var st client.State
	var err error
	if len(e.addNodes) > 0 {
		if st, err = c.AddFaults(ctx, e.addNodes...); err != nil {
			return st, err
		}
	}
	if len(e.clearNodes) > 0 {
		if st, err = c.ClearFaults(ctx, e.clearNodes...); err != nil {
			return st, err
		}
	}
	if len(e.addEdges) > 0 {
		if st, err = c.AddEdgeFaults(ctx, e.addEdges...); err != nil {
			return st, err
		}
	}
	if len(e.clearEdges) > 0 {
		st, err = c.ClearEdgeFaults(ctx, e.clearEdges...)
	}
	return st, err
}

// read polls closed loop until the writer is done: SDK Sync (a binary
// ?since= delta, checksum-verified by the SDK) on 19 of every 20 polls,
// a raw JSON full GET on the 20th.
func (s *serveRun) read(ctx context.Context, writerDone <-chan struct{}) {
	tr := s.out.tr
	for k := 0; ; k++ {
		select {
		case <-writerDone:
			return
		case <-time.After(s.sp.think):
		}
		traced := tr.active()
		ev := int64(k)
		full := k%s.sp.fullEvery == s.sp.fullEvery-1
		s.rAttempted++
		var err error
		if full {
			var body []byte
			if traced {
				root, start := tr.id(), time.Now()
				tr.child(root, ev, "http.get_full_json", func(id int64) { body, err = s.getFullJSON(withSpan(ctx, id, ev)) })
				tr.record(root, 0, ev, rootPoll, start, time.Now())
				if err == nil {
					s.fullBytes += int64(len(body))
					s.fullGets++
				}
			} else {
				body, err = s.getFullJSON(ctx)
			}
			if err == nil {
				err = verifyFullJSON(body)
			}
		} else {
			prev := s.rsdk.Stats()
			if traced {
				root, start := tr.id(), time.Now()
				tr.child(root, ev, "client.sync", func(id int64) { _, err = s.rsdk.Sync(withSpan(ctx, id, ev)) })
				tr.record(root, 0, ev, rootPoll, start, time.Now())
				cur := s.rsdk.Stats()
				if err == nil && cur.DeltaApplies > prev.DeltaApplies && cur.FullFetches == prev.FullFetches {
					s.deltaBytes += cur.BytesRead - prev.BytesRead
					s.deltaUpdates += cur.DeltaApplies - prev.DeltaApplies
				}
			} else {
				_, err = s.rsdk.Sync(ctx)
			}
		}
		if err != nil {
			s.rFailed++
			fmt.Fprintf(s.cfg.log, "bench: poll %d: %v\n", k, err)
		}
	}
}

func (s *serveRun) getFullJSON(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.fullURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.rhttp.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, client.ParseErrorBody(resp.StatusCode, body)
	}
	return body, nil
}

// verifyFullJSON checks a JSON embedding document against its checksum.
func verifyFullJSON(body []byte) error {
	var doc struct {
		Checksum string `json:"checksum"`
		Map      []int  `json:"map"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("full JSON: %w", err)
	}
	if got := fmt.Sprintf("%016x", wire.Checksum(doc.Map)); got != doc.Checksum {
		return fmt.Errorf("full JSON: map checksum %s, document says %s", got, doc.Checksum)
	}
	return nil
}

// finalCheck syncs the reader to the head and checks it against the
// writer's last commit and the dense oracle; then it repairs every
// remaining edge fault (untimed) and checks the reader against
// Server.ScratchExtract.
func (s *serveRun) finalCheck(ctx context.Context, oracle *ftnet.RandomFaultTorus) {
	out := s.out
	snap, err := s.rsdk.Sync(ctx)
	out.attempted++
	if err != nil {
		out.fail(fmt.Sprintf("final sync: %v", err))
		return
	}
	if s.lastState.Generation != 0 && (snap.Generation != s.lastState.Generation || fmt.Sprintf("%016x", snap.Checksum) != s.lastState.Checksum) {
		out.fail(fmt.Sprintf("reader holds generation %d (%016x), writer's last commit is %d (%s)", snap.Generation, snap.Checksum, s.lastState.Generation, s.lastState.Checksum))
	}
	if err := denseCheck(oracle, snap.Faults, snap.Edges, snap.Map); err != nil {
		out.fail("final state: " + err.Error())
	}
	if len(snap.Edges) > 0 {
		out.attempted++
		if _, err := s.wsdk.ClearEdgeFaults(ctx, snap.Edges...); err != nil && !ftnet.IsCode(err, ftnet.CodeNotTolerated) {
			out.fail(fmt.Sprintf("repairing the final edge faults: %v", err))
			return
		}
		out.attempted++
		if snap, err = s.rsdk.Sync(ctx); err != nil {
			out.fail(fmt.Sprintf("final sync: %v", err))
			return
		}
	}
	if len(snap.Edges) > 0 {
		return // repairing them was rejected; the dense check above covered the head
	}
	want, err := s.srv.ScratchExtract("bench")
	if err != nil {
		out.fail(fmt.Sprintf("ScratchExtract: %v", err))
		return
	}
	if want.Generation != snap.Generation || !slices.Equal(want.Map, snap.Map) {
		out.fail(fmt.Sprintf("reader map at generation %d differs from ScratchExtract at generation %d", snap.Generation, want.Generation))
	}
}

// scrapeMetrics reads the daemon's Prometheus text metrics in process
// (no connection), keyed by series.
func scrapeMetrics(srv *server.Server) map[string]float64 {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// Span propagation from the SDK to the server: the caller's context
// carries the client span, spanTransport copies it into request headers
// and serverSpans records the handler's span under it.
const (
	spanHeader  = "X-Bench-Span"
	eventHeader = "X-Bench-Event"
)

type spanKey struct{}

type spanRef struct{ id, event int64 }

func withSpan(ctx context.Context, id, event int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, event})
}

type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok && ref.id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10))
		r.Header.Set(eventHeader, strconv.FormatInt(ref.event, 10))
	}
	return t.base.RoundTrip(r)
}

// serverSpans wraps the daemon's handler and records each traced
// request's handler time, named by route.
type serverSpans struct {
	inner http.Handler
	tr    *tracer
}

func (m serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err1 := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	event, err2 := strconv.ParseInt(r.Header.Get(eventHeader), 10, 64)
	if err1 != nil || err2 != nil || !m.tr.active() {
		m.inner.ServeHTTP(w, r)
		return
	}
	id, start := m.tr.id(), time.Now()
	m.inner.ServeHTTP(w, r)
	m.tr.record(id, parent, event, routeSpan(r), start, time.Now())
}

func routeSpan(r *http.Request) string {
	switch {
	case r.Method != http.MethodGet:
		return "server.mutate"
	case r.URL.Query().Has("since"):
		return "server.get_delta"
	case strings.Contains(r.Header.Get("Accept"), wire.ContentType):
		return "server.get_full_bin"
	default:
		return "server.get_full_json"
	}
}
