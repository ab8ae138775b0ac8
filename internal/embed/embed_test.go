package embed

import (
	"strings"
	"testing"

	"ftnet/internal/fault"
	"ftnet/internal/torus"
)

// ringHost is a cycle host for testing the verifier.
type ringHost struct {
	n int
}

func (h *ringHost) NumNodes() int { return h.n }
func (h *ringHost) Adjacent(u, v int) bool {
	d := u - v
	if d < 0 {
		d = -d
	}
	return d == 1 || d == h.n-1
}

func ring(n int) *ringHost { return &ringHost{n: n} }

func identityEmbedding(t *testing.T, n int) *Embedding {
	t.Helper()
	guest, err := torus.NewUniform(torus.TorusKind, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	e := New(guest)
	for i := range e.Map {
		e.Map[i] = i
	}
	return e
}

func TestVerifyAccepts(t *testing.T) {
	e := identityEmbedding(t, 8)
	if err := e.Verify(ring(8), fault.NewSet(8), nil); err != nil {
		t.Errorf("identity embedding rejected: %v", err)
	}
}

func TestVerifyRejectsFaultyNode(t *testing.T) {
	e := identityEmbedding(t, 8)
	faults := fault.NewSet(8)
	faults.Add(3)
	if err := e.Verify(ring(8), faults, nil); err == nil || !strings.Contains(err.Error(), "faulty host node") {
		t.Errorf("faulty node not caught: %v", err)
	}
}

func TestVerifyRejectsFaultyEdge(t *testing.T) {
	e := identityEmbedding(t, 8)
	edges := fault.NewEdgeSet()
	edges.Add(2, 3)
	if err := e.Verify(ring(8), fault.NewSet(8), edges.Has); err == nil || !strings.Contains(err.Error(), "faulty host edge") {
		t.Errorf("faulty edge not caught: %v", err)
	}
}

func TestVerifyRejectsNonInjective(t *testing.T) {
	e := identityEmbedding(t, 8)
	e.Map[1] = 0
	if err := e.Verify(ring(8), fault.NewSet(8), nil); err == nil || !strings.Contains(err.Error(), "injective") {
		t.Errorf("non-injective map not caught: %v", err)
	}
}

func TestVerifyRejectsNonEdge(t *testing.T) {
	e := identityEmbedding(t, 8)
	// Swap two distant images: breaks adjacency but stays injective.
	e.Map[0], e.Map[4] = e.Map[4], e.Map[0]
	if err := e.Verify(ring(8), fault.NewSet(8), nil); err == nil || !strings.Contains(err.Error(), "non-adjacent") {
		t.Errorf("broken adjacency not caught: %v", err)
	}
}

func TestVerifyRejectsOutOfRange(t *testing.T) {
	e := identityEmbedding(t, 8)
	e.Map[2] = 99
	if err := e.Verify(ring(8), fault.NewSet(8), nil); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Errorf("out-of-range map not caught: %v", err)
	}
}

func TestVerifyRejectsWrongLength(t *testing.T) {
	e := identityEmbedding(t, 8)
	e.Map = e.Map[:5]
	if err := e.Verify(ring(8), fault.NewSet(8), nil); err == nil {
		t.Error("short map not caught")
	}
}

func TestMeshRestriction(t *testing.T) {
	e := identityEmbedding(t, 8)
	mesh, err := e.MeshRestriction()
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Guest.Kind != torus.MeshKind {
		t.Fatal("restriction did not produce a mesh")
	}
	// The mesh embedding verifies against the same host (fewer edges).
	if err := mesh.Verify(ring(8), fault.NewSet(8), nil); err != nil {
		t.Errorf("mesh restriction rejected: %v", err)
	}
	// The map is a copy, not an alias.
	mesh.Map[0] = 99
	if e.Map[0] == 99 {
		t.Error("MeshRestriction aliases the torus map")
	}
	// Restricting a mesh again fails.
	if _, err := mesh.MeshRestriction(); err == nil {
		t.Error("double restriction accepted")
	}
}
