// Package embed represents guest-into-host embeddings and verifies them
// independently of the algorithms that produced them.
//
// Every construction in the paper claims that, after faults, the host still
// *contains* a fault-free torus or mesh as a subgraph. Verify checks that
// claim directly from first principles: the mapping must be injective, its
// image must avoid faulty nodes, and every guest edge must map to an
// existing, fault-free host edge. The verifier deliberately knows nothing
// about bands, supernodes or pigeonholes, so it cannot share a bug with the
// extraction logic.
package embed

import (
	"fmt"

	"ftnet/internal/fault"
	"ftnet/internal/torus"
)

// Host is the host network an embedding is verified against. Every
// construction's graph implements it; the faults are passed to Verify
// separately.
type Host interface {
	// NumNodes returns the number of host nodes.
	NumNodes() int
	// Adjacent reports whether u and v are connected by a host edge.
	Adjacent(u, v int) bool
}

// Embedding maps each node of a guest torus/mesh to a host node.
type Embedding struct {
	Guest *torus.Graph
	// Map[g] is the host node hosting guest node g.
	Map []int
}

// New allocates an embedding for the guest with an all-zero map.
func New(guest *torus.Graph) *Embedding {
	return &Embedding{Guest: guest, Map: make([]int, guest.N())}
}

// MeshRestriction converts a torus embedding into a mesh embedding of the
// same shape: the mesh's edges are a subset of the torus's (the paper's
// "and hence a fault-free d-dimensional mesh of the same size"), so the
// node map carries over verbatim.
func (e *Embedding) MeshRestriction() (*Embedding, error) {
	if e.Guest.Kind != torus.TorusKind {
		return nil, fmt.Errorf("embed: guest is already a %v", e.Guest.Kind)
	}
	mesh, err := torus.New(torus.MeshKind, e.Guest.Shape)
	if err != nil {
		return nil, err
	}
	return &Embedding{Guest: mesh, Map: append([]int(nil), e.Map...)}, nil
}

// Verify checks that the embedding realizes a fault-free copy of the guest
// inside the host whose faulty nodes are faults. edgeFaulty reports
// whether the host edge {u, v} is faulty; it is nil when edges are
// reliable. Verify returns nil on success and a descriptive error naming
// the first violated condition otherwise.
func (e *Embedding) Verify(h Host, faults *fault.Set, edgeFaulty func(u, v int) bool) error {
	return e.VerifyBuf(h, faults, edgeFaulty, nil)
}

// VerifyBuf is Verify with a caller-provided injectivity bitmap: seen
// must be all-false with length h.NumNodes() (nil allocates one).
// Monte-Carlo workers pass a per-worker buffer to avoid an N-sized
// allocation per trial; the check itself is identical.
func (e *Embedding) VerifyBuf(h Host, faults *fault.Set, edgeFaulty func(u, v int) bool, seen []bool) error {
	n := e.Guest.N()
	if len(e.Map) != n {
		return fmt.Errorf("embed: map has %d entries, guest has %d nodes", len(e.Map), n)
	}
	hostN := h.NumNodes()
	if len(seen) != hostN {
		seen = make([]bool, hostN)
	}
	for g, u := range e.Map {
		if u < 0 || u >= hostN {
			return fmt.Errorf("embed: guest node %d maps to out-of-range host node %d", g, u)
		}
		if seen[u] {
			return fmt.Errorf("embed: host node %d hosts two guest nodes (not injective)", u)
		}
		seen[u] = true
		if faults.Has(u) {
			return fmt.Errorf("embed: guest node %d maps to faulty host node %d", g, u)
		}
	}
	var badEdge error
	e.Guest.EachEdge(func(a, b int) {
		if badEdge != nil {
			return
		}
		u, v := e.Map[a], e.Map[b]
		if !h.Adjacent(u, v) {
			badEdge = fmt.Errorf("embed: guest edge (%d,%d) maps to non-adjacent host pair (%d,%d)", a, b, u, v)
			return
		}
		if edgeFaulty != nil && edgeFaulty(u, v) {
			badEdge = fmt.Errorf("embed: guest edge (%d,%d) maps to faulty host edge (%d,%d)", a, b, u, v)
		}
	})
	return badEdge
}
