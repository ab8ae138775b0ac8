package server

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ftnet"
	"ftnet/internal/fterr"
	"ftnet/internal/wire"
)

// errDeltaEvicted answers a ?since= generation that fell off the delta
// ring (or predates a full rewrite): the requested diff no longer
// exists, and serving anything else would hand the client stale state.
// Handlers map it to 410 Gone; the client resyncs from the full
// embedding.
var errDeltaEvicted error = &fterr.E{Code: fterr.ResyncRequired, Op: "server", Msg: "generation evicted from the delta ring; resync from the full embedding"}

// deltaRec is one commit's entry in the per-topology delta ring: the
// guest columns whose map entries changed versus the previous
// generation, plus enough committed state (checksum, fault set) to emit
// watch events and build delta responses for that generation. Records
// are immutable once published; prev links form a chain bounded to the
// topology's DeltaRing length, trimmed by the single writer and walked
// lock-free by readers (prev is atomic so a trim racing a walk is just
// an early end-of-chain, which reads as eviction — safe, never stale).
type deltaRec struct {
	gen      int64
	checksum uint64
	faults   []int
	edges    [][2]int
	// cols lists, sorted, the columns changed vs gen-1; nil when full.
	cols []int32
	// full marks a resync boundary: initial commit, restart, or an
	// engine fallback that rewrote the whole embedding. Walks that need
	// to cross it fail with errDeltaEvicted.
	full bool
	prev atomic.Pointer[deltaRec]
}

// commitEvent renders the record's SSE "commit" event.
func (rec *deltaRec) commitEvent(topology string) []byte {
	changed := len(rec.cols)
	if rec.full {
		changed = -1
	}
	return renderWatchEvent("commit", watchEvent{
		Topology:    topology,
		Generation:  rec.gen,
		Checksum:    fmt.Sprintf("%016x", rec.checksum),
		Faults:      rec.faults,
		EdgeFaults:  edgesOrEmpty(rec.edges),
		ChangedCols: changed,
	})
}

// linkDelta attaches snap's delta record, chaining to the previous
// snapshot's and trimming the chain to the ring bound. Called by the
// topology writer (or construction) before snap is published, so
// readers never observe a snapshot without its record. Every published
// snapshot has a record and every commit is its predecessor's
// generation plus one, so only the first snapshot and a full engine
// delta start a new chain.
func (t *topology) linkDelta(prevSnap, snap *Snapshot, d *ftnet.EmbeddingDelta) {
	rec := &deltaRec{
		gen:      snap.Generation,
		checksum: snap.Checksum,
		faults:   snap.FaultNodes,
		edges:    snap.FaultEdges,
	}
	if prevSnap == nil || d.Full {
		rec.full = true
	} else {
		rec.cols = changedColumns(prevSnap.Emb.Map, snap.Emb.Map, d.Cols, t.numCols)
		rec.prev.Store(prevSnap.delta)
	}
	snap.delta = rec
	trimDeltaChain(rec, t.deltaRing)
}

// changedColumns filters the engine's candidate columns (a superset, see
// ftnet.EmbeddingDelta) down to the columns whose map entries actually
// differ between the two committed embeddings. cand is sorted, so the
// result is too.
func changedColumns(oldMap, newMap []int, cand []int, numCols int) []int32 {
	side := len(newMap) / numCols
	var out []int32
	for _, z := range cand {
		for j := 0; j < side; j++ {
			if oldMap[j*numCols+z] != newMap[j*numCols+z] {
				out = append(out, int32(z))
				break
			}
		}
	}
	return out
}

// trimDeltaChain bounds the chain to ring records (head included),
// unlinking everything older for the collector.
func trimDeltaChain(head *deltaRec, ring int) {
	rec := head
	for i := 1; i < ring; i++ {
		next := rec.prev.Load()
		if next == nil {
			return
		}
		rec = next
	}
	rec.prev.Store(nil)
}

// deltaChain returns the delta records of (since, head], newest first,
// and whether the chain reaches since+1: the ring may have evicted a
// record, and a full record links no predecessor (linkDelta). The
// caller guarantees since < head generation.
func deltaChain(snap *Snapshot, since int64) ([]*deltaRec, bool) {
	var recs []*deltaRec
	for rec := snap.delta; rec != nil; rec = rec.prev.Load() {
		recs = append(recs, rec)
		if rec.gen == since+1 {
			return recs, true
		}
	}
	return recs, false
}

// deltaSince merges the per-commit column diffs covering (since, head]
// into one sorted column list. It fails with errDeltaEvicted when the
// chain does not reach since+1, or when the record there is full and so
// has no column list. The caller guarantees 0 <= since <= head
// generation.
func deltaSince(snap *Snapshot, since int64) ([]int32, error) {
	if since == snap.Generation {
		return nil, nil
	}
	recs, ok := deltaChain(snap, since)
	if !ok || recs[len(recs)-1].full {
		return nil, errDeltaEvicted
	}
	var out []int32
	for _, rec := range recs {
		out = append(out, rec.cols...)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// wireSnapshot is the snapshot's binary-protocol view.
func (s *Snapshot) wireSnapshot(topology string) *wire.Snapshot {
	return &wire.Snapshot{
		Topology:   topology,
		Generation: s.Generation,
		Side:       s.Emb.Side,
		Dims:       s.Emb.Dims,
		Faults:     s.FaultNodes,
		Edges:      s.FaultEdges,
		Map:        s.Emb.Map,
		Checksum:   s.Checksum,
	}
}

// wireDelta builds the delta payload for (since, head]: the merged
// changed columns carrying their head-generation values, the head fault
// set, and the head checksum (so wire.Apply can verify the patch).
func (t *topology) wireDelta(snap *Snapshot, since int64, cols []int32) *wire.Delta {
	nc := t.numCols
	side := snap.Emb.Side
	cus := make([]wire.ColumnUpdate, len(cols))
	for i, z := range cols {
		vals := make([]int, side)
		for j := 0; j < side; j++ {
			vals[j] = snap.Emb.Map[j*nc+int(z)]
		}
		cus[i] = wire.ColumnUpdate{Col: int(z), Vals: vals}
	}
	return &wire.Delta{
		Topology:       t.cfg.ID,
		FromGeneration: since,
		ToGeneration:   snap.Generation,
		Side:           side,
		Dims:           snap.Emb.Dims,
		Faults:         snap.FaultNodes,
		Edges:          snap.FaultEdges,
		Cols:           cus,
		Checksum:       snap.Checksum,
	}
}
