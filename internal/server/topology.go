// Package server implements ftnetd: a daemon hosting one long-lived
// ftnet.Session per configured topology behind an HTTP/JSON wire
// protocol (see routes in server.go).
//
// The ftnet.Session contract is single-writer, so each topology owns one
// writer goroutine and a serialization queue, and that goroutine is the
// only code that reads or mutates session state. The queue coalesces:
// every mutation that arrives while a Reembed is in flight is applied to
// the session as soon as the writer frees up and covered by the *next*
// evaluation, so a burst of k concurrent fault reports costs a small
// constant number of Evals, not k (the acceptance contract of the race
// test). Asynchronous mutations (?wait=0) accumulate until the flush
// interval elapses, an explicit POST .../reembed arrives, or a
// synchronous request joins the batch. Snapshot writes ride the same
// queue: the writer persists the session after applying every request
// queued ahead of the snapshot, so the file includes every mutation
// acknowledged before it was asked for. Readers never enter the queue:
// GET .../embedding is served from an atomically swapped snapshot of the
// last committed embedding, so reads never block on the writer.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ftnet"
	"ftnet/internal/fterr"
	"ftnet/internal/wire"
)

// Snapshot is one committed state of a topology: a verified embedding
// and exactly the fault set it was committed with. Snapshots are
// immutable; readers share them by pointer.
type Snapshot struct {
	// Generation counts successful commits (monotone; restored from the
	// snapshot file across restarts).
	Generation int64
	// Emb is the verified embedding (stable: it does not alias the
	// session).
	Emb *ftnet.Embedding
	// FaultNodes is the fault set Emb was committed against, increasing.
	FaultNodes []int
	// FaultEdges is the edge-fault set Emb was committed against:
	// canonical (u < v) pairs, sorted lexicographically. Emb avoids the
	// charged endpoint of every listed edge (the Theorem 2 reduction).
	FaultEdges [][2]int
	// Checksum is the FNV-1a hash of Emb.Map (see wire.Checksum).
	Checksum uint64

	// delta is this generation's entry in the topology's bounded diff
	// chain (set before the snapshot is published).
	delta *deltaRec
}

// errShutdown is returned to requests caught by a daemon shutdown: a
// coded fterr.Unavailable sentinel (retryable — another replica, or this
// one after a restart, can serve the retry).
var errShutdown error = &fterr.E{Code: fterr.Unavailable, Op: "server", Msg: "shutting down"}

type reqKind uint8

const (
	reqAdd reqKind = iota
	reqClear
	reqFlush
	reqSnapshot
)

// request is one unit of writer work. A mutation (reqAdd, reqClear)
// carries node and edge faults alike: Theorem 2 charges an edge fault to
// one endpoint, so both are the same kind of change to the session.
// reply is buffered (capacity 1) so the writer never blocks on an
// abandoned waiter.
type request struct {
	kind  reqKind
	nodes []int
	edges [][2]int
	reply chan result // nil for fire-and-forget mutations
}

type result struct {
	snap *Snapshot
	err  error
}

// topology is one hosted instance: host graph, session, writer queue.
type topology struct {
	cfg     TopologyConfig
	host    *ftnet.RandomFaultTorus
	ses     *ftnet.Session
	numCols int // host columns n^(d-1); column = node % numCols

	reqs  chan request
	stopc chan struct{}
	done  chan struct{}

	snap    atomic.Pointer[Snapshot]
	metrics *topoMetrics
	snapDir string // snapshot directory; "" disables snapshots

	// Writer-goroutine state: the batch accumulated since the last
	// evaluation attempt, and the final snapshot write's outcome (read
	// by Server.Close once done is closed).
	pendingMuts  int
	pendingNodes int
	waiters      []chan result
	closeErr     error

	flushEvery time.Duration
	deltaRing  int          // bound on the delta chain length
	evalDelay  atomic.Int64 // test hook (nanoseconds): stretches the eval window

	// Watch subscribers: each holds a capacity-1 signal channel the
	// writer pokes (non-blocking) after every commit. Handlers read the
	// published snapshot themselves, so the writer never carries data to
	// a subscriber and never blocks on one.
	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}
}

// subscribe registers a commit-signal channel for a watch stream.
func (t *topology) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	t.watchMu.Lock()
	t.watchers[ch] = struct{}{}
	n := len(t.watchers)
	t.watchMu.Unlock()
	t.metrics.watchers.Store(int64(n))
	return ch
}

func (t *topology) unsubscribe(ch chan struct{}) {
	t.watchMu.Lock()
	delete(t.watchers, ch)
	n := len(t.watchers)
	t.watchMu.Unlock()
	t.metrics.watchers.Store(int64(n))
}

// notifyWatchers signals every subscriber that a new snapshot is
// published. Sends are non-blocking: a subscriber that has not drained
// its previous signal already owes itself a snapshot load, which will
// observe this commit too.
func (t *topology) notifyWatchers() {
	t.watchMu.Lock()
	for ch := range t.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	t.watchMu.Unlock()
}

// newTopology builds the host, optionally restores a disk snapshot, and
// commits the initial state synchronously, so a constructed topology
// always has a servable snapshot before its worker starts.
func newTopology(cfg TopologyConfig, policy Config, restore *diskSnapshot) (*topology, error) {
	host, err := ftnet.NewRandomFaultTorus(cfg.D, cfg.MinSide, cfg.MaxEps)
	if err != nil {
		return nil, fmt.Errorf("topology %s: %w", cfg.ID, err)
	}
	numCols := 1
	for i := 1; i < host.Dims(); i++ {
		numCols *= host.Side()
	}
	t := &topology{
		cfg:        cfg,
		host:       host,
		ses:        host.NewSession(),
		numCols:    numCols,
		reqs:       make(chan request, 256),
		stopc:      make(chan struct{}),
		done:       make(chan struct{}),
		metrics:    &topoMetrics{},
		snapDir:    policy.SnapshotDir,
		flushEvery: policy.flushInterval(),
		deltaRing:  policy.deltaRing(),
		watchers:   make(map[chan struct{}]struct{}),
	}
	gen := int64(0)
	if restore != nil {
		if err := restore.check(cfg, host); err != nil {
			return nil, err
		}
		if err := t.mutateSession(request{kind: reqAdd, nodes: restore.Faults, edges: restore.Edges}); err != nil {
			return nil, fterr.Wrapf(fterr.Corrupt, "server.snapshot", err, "topology %s: restore", cfg.ID)
		}
		gen = restore.Generation
		t.metrics.restored.Store(1)
	}
	// ReembedDelta rather than Reembed: the initial commit is a full
	// resync boundary (no diff exists to anything older, in particular not
	// across a restart), so the session's delta accumulator must be
	// drained here — otherwise the cold evaluation's full-rewrite flag
	// leaks into the FIRST real commit, turning it into a needless 410 for
	// every client that already holds this head (clients reconnecting
	// after a restart would resync twice).
	emb, d, err := t.ses.ReembedDelta()
	if err != nil {
		return nil, fmt.Errorf("topology %s: initial reembed: %w", cfg.ID, err)
	}
	snap := t.commit(gen, emb, d)
	if restore == nil {
		return t, nil
	}
	if snap.Checksum != restore.checksum() {
		return nil, fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: restored embedding checksum %016x does not match snapshot %016x",
			cfg.ID, snap.Checksum, restore.checksum())
	}
	if err := t.restoreUncommitted(restore); err != nil {
		return nil, err
	}
	return t, nil
}

// restoreUncommitted replays the snapshot's session-level delta — the
// mutations recorded after the last successful commit: adds beyond, and
// clears of, the committed fault and edge-fault sets — through apply, as
// if the requests had just arrived. Nothing is evaluated: the
// pre-restart state may well have been beyond tolerance, and it stays
// pending for the batching policy, exactly as it was before the restart.
func (t *topology) restoreUncommitted(restore *diskSnapshot) error {
	adds, clears := request{kind: reqAdd}, request{kind: reqClear}
	if restore.SessionFaults != nil {
		adds.nodes, clears.nodes = sortedDiff(restore.Faults, restore.SessionFaults, cmp.Compare[int])
	}
	if restore.SessionEdges != nil {
		adds.edges, clears.edges = sortedDiff(restore.Edges, restore.SessionEdges,
			func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
	}
	for _, req := range []request{adds, clears} {
		if len(req.nodes)+len(req.edges) == 0 {
			continue
		}
		if err := t.apply(req); err != nil {
			return fterr.Wrapf(fterr.Corrupt, "server.snapshot", err, "topology %s: restore uncommitted", t.cfg.ID)
		}
	}
	// However many requests built it, the restored delta is one pending
	// mutation.
	t.pendingMuts = min(t.pendingMuts, 1)
	t.metrics.pendingRequests.Store(int64(t.pendingMuts))
	return nil
}

// sortedDiff splits two lists sorted by compare into session-only (adds)
// and committed-only (clears) elements.
func sortedDiff[E any](committed, session []E, compare func(a, b E) int) (adds, clears []E) {
	i, j := 0, 0
	for i < len(committed) || j < len(session) {
		switch {
		case i == len(committed) || (j < len(session) && compare(session[j], committed[i]) < 0):
			adds = append(adds, session[j])
			j++
		case j == len(session) || compare(committed[i], session[j]) < 0:
			clears = append(clears, committed[i])
			i++
		default:
			i++
			j++
		}
	}
	return adds, clears
}

// submit enqueues a request unless the daemon is stopping.
func (t *topology) submit(req request) error {
	select {
	case t.reqs <- req:
		return nil
	case <-t.stopc:
		return errShutdown
	}
}

// run is the single-writer loop. Only this goroutine touches t.ses and
// the pending-batch state.
func (t *topology) run() {
	defer close(t.done)
	var tick <-chan time.Time
	if t.flushEvery > 0 {
		ticker := time.NewTicker(t.flushEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-t.stopc:
			t.shutdown()
			return
		case req := <-t.reqs:
			t.apply(req)
			// Coalesce everything already queued — this is where a burst
			// that piled up behind an in-flight eval becomes one batch.
			t.drain()
			// A waiter (a synchronous mutation or a flush) forces the
			// evaluation.
			if len(t.waiters) > 0 {
				t.eval()
			}
		case <-tick:
			if t.pendingMuts > 0 {
				t.eval()
			}
		}
	}
}

// drain applies every request already queued, without blocking.
func (t *topology) drain() {
	for {
		select {
		case req := <-t.reqs:
			t.apply(req)
		default:
			return
		}
	}
}

// apply folds one request into the writer's state, in queue order. A
// mutation joins the pending batch and a flush forces the evaluation; a
// snapshot is written at once, so it records every request queued ahead
// of it and none behind it, and it does not force an evaluation of its
// own. A mutation the session rejects fails only that request — the
// handler validated every index, so this is an internal inconsistency —
// and apply returns the error as well, for the restore replay.
func (t *topology) apply(req request) error {
	switch req.kind {
	case reqSnapshot:
		snap, err := t.writeSnapshot()
		req.reply <- result{snap: snap, err: err}
		return nil
	case reqAdd, reqClear:
		if err := t.mutateSession(req); err != nil {
			if req.reply != nil {
				req.reply <- result{err: err}
			}
			return err
		}
		t.pendingMuts++
		t.pendingNodes += len(req.nodes) + len(req.edges)
		t.metrics.pendingRequests.Store(int64(t.pendingMuts))
	}
	if req.reply != nil {
		t.waiters = append(t.waiters, req.reply)
	}
	return nil
}

// mutateSession applies a mutation's node faults, then its edge faults,
// to the session; each list is all-or-nothing.
func (t *topology) mutateSession(req request) error {
	if req.kind == reqAdd {
		if err := t.ses.AddFaultsChecked(req.nodes...); err != nil {
			return err
		}
		return t.ses.AddEdgeFaultsChecked(req.edges...)
	}
	if err := t.ses.ClearFaultsChecked(req.nodes...); err != nil {
		return err
	}
	return t.ses.ClearEdgeFaultsChecked(req.edges...)
}

// eval evaluates the accumulated batch with one Reembed and publishes
// the outcome: a fresh snapshot on success, the error to every waiter on
// failure. A failed (ErrNotTolerated) evaluation leaves the previous
// snapshot served and the session's pending churn intact — the engine
// re-checks every mutated column once a later batch heals the state.
func (t *topology) eval() {
	muts, nodes := t.pendingMuts, t.pendingNodes
	t.pendingMuts, t.pendingNodes = 0, 0
	waiters := t.waiters
	t.waiters = nil
	t.metrics.pendingRequests.Store(0)

	if d := t.evalDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	start := time.Now()
	emb, d, err := t.ses.ReembedDelta()
	t.metrics.reembedNanos.Add(time.Since(start).Nanoseconds())
	t.metrics.batchMutations.Add(int64(muts))
	t.metrics.batchNodes.Add(int64(nodes))

	var res result
	switch {
	case err == nil:
		res = result{snap: t.commit(t.snap.Load().Generation+1, emb, d)}
	case errors.Is(err, ftnet.ErrNotTolerated):
		t.metrics.reembedNotTol.Add(1)
		res = result{err: err}
	default:
		t.metrics.reembedErr.Add(1)
		res = result{err: err}
	}
	for _, w := range waiters {
		w <- res
	}
}

// commit publishes emb, just evaluated against the session's fault sets,
// as the served snapshot of generation gen: it links the snapshot's
// delta record (a full resync boundary when no snapshot precedes it),
// swaps it in, updates the gauges and signals the watchers. Called by
// the writer, and once by construction.
func (t *topology) commit(gen int64, emb *ftnet.Embedding, d *ftnet.EmbeddingDelta) *Snapshot {
	snap := &Snapshot{
		Generation: gen,
		Emb:        emb,
		FaultNodes: t.ses.FaultNodes(),
		FaultEdges: t.ses.FaultEdges(),
		Checksum:   wire.Checksum(emb.Map),
	}
	t.linkDelta(t.snap.Load(), snap, d)
	t.snap.Store(snap)
	t.metrics.reembedOK.Add(1)
	t.metrics.faults.Store(int64(len(snap.FaultNodes)))
	t.metrics.edgeFaults.Store(int64(len(snap.FaultEdges)))
	t.metrics.generation.Store(gen)
	t.notifyWatchers()
	return snap
}

// shutdown applies every request still queued (an asynchronous mutation
// was already answered 202 Accepted, so dropping it would break that
// promise), flushes with a final eval and, when snapshots are
// configured, writes the final snapshot, so the file reflects everything
// the daemon accepted. Remaining waiters get the flush outcome; submit
// stops accepting once stopc is closed.
func (t *topology) shutdown() {
	t.drain()
	if t.pendingMuts > 0 || len(t.waiters) > 0 {
		t.eval()
	}
	if t.snapDir != "" {
		_, t.closeErr = t.writeSnapshot()
	}
}
