package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"ftnet/internal/fterr"
	"ftnet/internal/wire"

	"ftnet"
)

// diskSnapshot is the on-disk session state: the committed fault set and
// embedding generation, plus enough topology identity to refuse a
// restore onto a different host. The embedding itself is not stored —
// the pipeline is deterministic, so replaying the fault set reproduces
// it bit-identically; EmbeddingChecksum pins that claim at restore time.
type diskSnapshot struct {
	Version    int    `json:"version"`
	TopologyID string `json:"topology"`
	D          int    `json:"d"`
	Side       int    `json:"side"` // realized guest side, not MinSide
	HostNodes  int    `json:"host_nodes"`
	Generation int64  `json:"generation"`
	Faults     []int  `json:"faults"`
	// Edges is the committed edge-fault set: canonical (u < v) pairs,
	// sorted lexicographically. Absent in pre-edge-fault snapshots,
	// which restore with no edge faults.
	Edges [][2]int `json:"edges,omitempty"`
	// SessionFaults is the session's full fault set at snapshot time,
	// including mutations recorded after the last successful commit
	// (whose evaluation failed or had not run yet) — recorded reality
	// never rolls back, so it must survive a restart too. Restore
	// replays Faults (which must re-verify against EmbeddingChecksum)
	// and then the delta to SessionFaults, left pending. No omitempty:
	// null means "same as Faults", while an explicit empty list means
	// every committed fault was cleared after the commit — omitempty
	// would collapse the two.
	SessionFaults []int `json:"session_faults"`
	// SessionEdges is the edge analogue of SessionFaults, with the same
	// null-versus-empty distinction against Edges.
	SessionEdges [][2]int `json:"session_edges"`
	// EmbeddingChecksum is wire.Checksum of the committed map, hex-encoded.
	EmbeddingChecksum string `json:"embedding_checksum"`
}

const snapshotVersion = 1

func (d *diskSnapshot) checksum() uint64 {
	v, err := strconv.ParseUint(d.EmbeddingChecksum, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// check refuses to restore a snapshot of another version, with a
// generation the wire codec cannot carry, onto an incompatible host, or
// with a fault or edge list in another form than the daemon writes:
// node lists strictly increasing, edge lists of canonical (0 <= u < v)
// pairs in strictly increasing lexicographic order. Restore diffs the
// session lists against the committed ones by a sorted merge
// (sortedDiff), which would silently drop recorded faults from a list
// out of order.
func (d *diskSnapshot) check(cfg TopologyConfig, host *ftnet.RandomFaultTorus) error {
	if d.Version != snapshotVersion {
		return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot version %d, want %d", cfg.ID, d.Version, snapshotVersion)
	}
	if d.Generation < 0 || d.Generation >= wire.MaxValue {
		return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot generation %d out of [0, %d)", cfg.ID, d.Generation, wire.MaxValue)
	}
	if d.TopologyID != cfg.ID {
		return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot belongs to topology %q", cfg.ID, d.TopologyID)
	}
	if d.D != host.Dims() || d.Side != host.Side() || d.HostNodes != host.HostNodes() {
		return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot host (d=%d side=%d nodes=%d) does not match configured host (d=%d side=%d nodes=%d)",
			cfg.ID, d.D, d.Side, d.HostNodes, host.Dims(), host.Side(), host.HostNodes())
	}
	for _, l := range []struct {
		name  string
		nodes []int
	}{{"faults", d.Faults}, {"session_faults", d.SessionFaults}} {
		for i := 1; i < len(l.nodes); i++ {
			if l.nodes[i-1] >= l.nodes[i] {
				return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot %s not strictly increasing at index %d", cfg.ID, l.name, i)
			}
		}
	}
	for _, l := range []struct {
		name  string
		edges [][2]int
	}{{"edges", d.Edges}, {"session_edges", d.SessionEdges}} {
		for i, e := range l.edges {
			if e[0] < 0 || e[0] >= e[1] {
				return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot %s[%d] = %v is not a canonical (0 <= u < v) pair", cfg.ID, l.name, i, e)
			}
			if i > 0 && slices.Compare(l.edges[i-1][:], e[:]) >= 0 {
				return fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: snapshot %s not strictly increasing at index %d", cfg.ID, l.name, i)
			}
		}
	}
	return nil
}

// snapshotPath is <dir>/<id>.json; topology IDs are validated to be
// path-safe (see TopologyConfig.Validate).
func snapshotPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// writeSnapshot persists the served snapshot together with the
// session's full fault sets (see diskSnapshot.SessionFaults), each
// recorded only when it differs from its committed set, and returns the
// committed snapshot that went to disk. The write is atomic and durable:
// a temp file synced before it is renamed over the old one, then a
// synced directory, so a crash never leaves a torn file and a returned
// write survives power loss. Writer goroutine only — it reads the
// session.
func (t *topology) writeSnapshot() (*Snapshot, error) {
	snap := t.snap.Load()
	d := diskSnapshot{
		Version:           snapshotVersion,
		TopologyID:        t.cfg.ID,
		D:                 t.host.Dims(),
		Side:              t.host.Side(),
		HostNodes:         t.host.HostNodes(),
		Generation:        snap.Generation,
		Faults:            snap.FaultNodes,
		Edges:             snap.FaultEdges,
		EmbeddingChecksum: fmt.Sprintf("%016x", snap.Checksum),
	}
	if session := t.ses.FaultNodes(); !slices.Equal(session, snap.FaultNodes) {
		d.SessionFaults = session
		if d.SessionFaults == nil {
			d.SessionFaults = []int{} // nil means "same as Faults"
		}
	}
	if session := t.ses.FaultEdges(); !slices.Equal(session, snap.FaultEdges) {
		d.SessionEdges = session
		if d.SessionEdges == nil {
			d.SessionEdges = [][2]int{} // nil means "same as Edges"
		}
	}
	if err := os.MkdirAll(t.snapDir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(&d)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(t.snapDir, t.cfg.ID+".tmp-*")
	if err != nil {
		return nil, err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), snapshotPath(t.snapDir, t.cfg.ID))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := syncDir(t.snapDir); err != nil {
		return nil, err
	}
	return snap, nil
}

// syncDir makes the directory entries of dir, such as a rename, durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadSnapshot reads a topology's snapshot file; a missing file is not
// an error (nil, nil) — the topology then starts fresh.
func loadSnapshot(dir, id string) (*diskSnapshot, error) {
	data, err := os.ReadFile(snapshotPath(dir, id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var d diskSnapshot
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fterr.Wrapf(fterr.Corrupt, "server.snapshot", err, "decode %s", snapshotPath(dir, id))
	}
	return &d, nil
}
