package bands

import (
	"testing"

	"ftnet/internal/grid"
)

// Tests for the copy-on-write mode backing the locality-aware Theorem 2
// pipeline: seeding, dirty tracking, O(footprint) re-seeding, and the
// footprint-restricted validator.

// cowTemplate builds a small valid family: m=30, width 2, k=3 bands at
// bottoms 0, 10, 20 on every column of a 6-column line.
func cowTemplate(t *testing.T) *Set {
	t.Helper()
	tpl := NewSet(30, 2, grid.Shape{6}, 3)
	for g := 0; g < 3; g++ {
		for z := 0; z < 6; z++ {
			tpl.SetValue(g, z, g*10)
		}
	}
	if err := tpl.Validate(); err != nil {
		t.Fatalf("template invalid: %v", err)
	}
	return tpl
}

func TestSeedFromTracksAndRestores(t *testing.T) {
	tpl := cowTemplate(t)
	ws := NewSet(30, 2, grid.Shape{6}, 3)
	ws.SetValue(0, 0, 1)
	if ws.IsDirty(0) || len(ws.DirtyColumns()) != 0 {
		t.Fatal("fresh set should not track")
	}
	if err := ws.SeedFrom(tpl); err != nil {
		t.Fatal(err)
	}
	if len(ws.DirtyColumns()) != 0 {
		t.Fatalf("after seed: dirty=%v", ws.DirtyColumns())
	}
	for g := 0; g < 3; g++ {
		for z := 0; z < 6; z++ {
			if ws.Value(g, z) != tpl.Value(g, z) {
				t.Fatalf("seed copy mismatch at (%d,%d)", g, z)
			}
		}
	}
	// Writes mark their column dirty, once.
	ws.SetValue(1, 3, 11)
	ws.SetValue(2, 3, 21)
	ws.SetValue(0, 5, 1)
	if got := len(ws.DirtyColumns()); got != 2 {
		t.Fatalf("dirty count = %d, want 2", got)
	}
	if !ws.IsDirty(3) || !ws.IsDirty(5) || ws.IsDirty(0) {
		t.Fatalf("dirty bits wrong: %v", ws.DirtyColumns())
	}
	want := []int32{3, 5}
	for i, z := range ws.DirtyColumns() {
		if z != want[i] {
			t.Fatalf("dirty order = %v, want %v", ws.DirtyColumns(), want)
		}
	}
	// Re-seeding restores exactly the dirty columns and clears the set.
	if err := ws.SeedFrom(tpl); err != nil {
		t.Fatal(err)
	}
	if len(ws.DirtyColumns()) != 0 {
		t.Fatalf("dirty not cleared: %v", ws.DirtyColumns())
	}
	for g := 0; g < 3; g++ {
		for z := 0; z < 6; z++ {
			if ws.Value(g, z) != tpl.Value(g, z) {
				t.Fatalf("restore mismatch at (%d,%d): %d vs %d", g, z, ws.Value(g, z), tpl.Value(g, z))
			}
		}
	}
}

func TestSeedFromGeometryMismatch(t *testing.T) {
	tpl := cowTemplate(t)
	ws := NewSet(30, 2, grid.Shape{7}, 3)
	if err := ws.SeedFrom(tpl); err == nil {
		t.Fatal("column-count mismatch accepted")
	}
	ws = NewSet(31, 2, grid.Shape{6}, 3)
	if err := ws.SeedFrom(tpl); err == nil {
		t.Fatal("cycle-length mismatch accepted")
	}
}

func TestValidateDirty(t *testing.T) {
	tpl := cowTemplate(t)
	ws := NewSet(30, 2, grid.Shape{6}, 3)
	if err := ws.SeedFrom(tpl); err != nil {
		t.Fatal(err)
	}
	if err := ws.ValidateColumns(ws.DirtyColumns()); err != nil {
		t.Fatalf("clean set: %v", err)
	}
	// A legal one-step slide in one column passes.
	ws.SetValue(1, 3, 11)
	if err := ws.ValidateColumns(ws.DirtyColumns()); err != nil {
		t.Fatalf("legal slide: %v", err)
	}
	// A two-step slide violates the slope condition against a clean
	// neighbor and must be caught even though the neighbor is not dirty.
	ws.SetValue(1, 3, 12)
	if err := ws.ValidateColumns(ws.DirtyColumns()); err == nil {
		t.Fatal("slope violation missed")
	}
	// Touching bands within a dirty column are caught.
	if err := ws.SeedFrom(tpl); err != nil {
		t.Fatal(err)
	}
	ws.SetValue(1, 2, 12)
	ws.SetValue(2, 2, 14)
	if err := ws.ValidateColumns(ws.DirtyColumns()); err == nil {
		t.Fatal("touching bands missed")
	}
}
