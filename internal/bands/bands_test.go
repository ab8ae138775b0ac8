package bands

import (
	"testing"
	"testing/quick"

	"ftnet/internal/grid"
)

// straightSet builds k straight bands evenly spaced on a cycle of length m.
func straightSet(m, width, k, cols int) *Set {
	s := NewSet(m, width, grid.Shape{cols}, k)
	pitch := m / k
	for g := 0; g < k; g++ {
		for z := 0; z < cols; z++ {
			s.SetValue(g, z, g*pitch)
		}
	}
	return s
}

func TestStraightSetValid(t *testing.T) {
	s := straightSet(120, 4, 10, 9)
	if err := s.Validate(); err != nil {
		t.Fatalf("straight set invalid: %v", err)
	}
}

func TestValidateDetectsTouching(t *testing.T) {
	s := straightSet(120, 4, 10, 3)
	s.SetValue(1, 1, s.Value(0, 1)+4) // exactly width apart: touching
	if err := s.Validate(); err == nil {
		t.Error("touching bands passed validation")
	}
}

func TestValidateDetectsSlope(t *testing.T) {
	s := straightSet(120, 4, 10, 5)
	s.SetValue(3, 2, s.Value(3, 2)+2) // jump of 2 between columns 1,2
	if err := s.Validate(); err == nil {
		t.Error("slope-2 band passed validation")
	}
}

func TestValidateDetectsCrossing(t *testing.T) {
	s := straightSet(120, 4, 10, 3)
	// Swap two band values at one column: order inconsistent.
	v0, v1 := s.Value(0, 0), s.Value(1, 0)
	s.SetValue(0, 0, v1)
	s.SetValue(1, 0, v0)
	if err := s.Validate(); err == nil {
		t.Error("crossed bands passed validation")
	}
}

func TestMasksAndMaskedBy(t *testing.T) {
	s := straightSet(120, 4, 10, 4)
	for z := 0; z < 4; z++ {
		for row := 0; row < 120; row++ {
			want := -1
			for g := 0; g < 10; g++ {
				if grid.InCyclicInterval(row, s.Value(g, z), 4, 120) {
					want = g
					break
				}
			}
			if got := s.MaskedBy(z, row); got != want {
				t.Fatalf("MaskedBy(%d,%d) = %d, want %d", z, row, got, want)
			}
		}
	}
}

func TestMaskedByWrapBand(t *testing.T) {
	// A band whose mask wraps around row 0.
	s := NewSet(50, 6, grid.Shape{2}, 2)
	s.SetValue(0, 0, 47) // masks 47,48,49,0,1,2
	s.SetValue(1, 0, 20)
	s.SetValue(0, 1, 47)
	s.SetValue(1, 1, 20)
	for _, row := range []int{47, 49, 0, 2} {
		if got := s.MaskedBy(0, row); got != 0 {
			t.Errorf("MaskedBy(0,%d) = %d, want 0", row, got)
		}
	}
	if got := s.MaskedBy(0, 3); got != -1 {
		t.Errorf("row 3 should be unmasked, got band %d", got)
	}
	if got := s.MaskedBy(0, 25); got != 1 {
		t.Errorf("MaskedBy(0,25) = %d, want 1", got)
	}
}

func TestUnmaskedRowsCountAndComplement(t *testing.T) {
	s := straightSet(120, 4, 10, 3)
	for z := 0; z < 3; z++ {
		rows := s.UnmaskedRows(z, nil)
		if len(rows) != 80 {
			t.Fatalf("column %d: %d unmasked rows, want 80", z, len(rows))
		}
		seen := map[int32]bool{}
		for _, r := range rows {
			if seen[r] {
				t.Fatalf("duplicate unmasked row %d", r)
			}
			seen[r] = true
			if s.MaskedBy(z, int(r)) >= 0 {
				t.Fatalf("unmasked row %d is masked", r)
			}
		}
	}
}

func TestUnmaskedRowsEmptyFamily(t *testing.T) {
	s := NewSet(10, 3, grid.Shape{1}, 0)
	rows := s.UnmaskedRows(0, nil)
	if len(rows) != 10 {
		t.Fatalf("empty family should leave all rows unmasked, got %d", len(rows))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("empty family should validate: %v", err)
	}
}

func TestWindingBandStillValid(t *testing.T) {
	// One band that winds +1 per column and returns (cols divides m drift
	// back via symmetric descent).
	m, width, cols := 60, 3, 6
	s := NewSet(m, width, grid.Shape{cols}, 2)
	// Band 0 winds up then down: values 10,11,12,11,10,10 -> slope ok,
	// wraps consistently (first and last columns are adjacent).
	vals := []int{10, 11, 12, 11, 10, 10}
	for z, v := range vals {
		s.SetValue(0, z, v)
		s.SetValue(1, z, v+30)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("winding band invalid: %v", err)
	}
}

func TestExactlyFullFamilyAccepted(t *testing.T) {
	// 4 bands of width 4 with gaps exactly width+1 fill a 20-cycle.
	s := straightSet(20, 4, 4, 2)
	if err := s.Validate(); err != nil {
		t.Errorf("exactly-full family rejected: %v", err)
	}
}

func TestTooManyBandsRejected(t *testing.T) {
	s := straightSet(19, 4, 4, 2) // 4*(4+1) = 20 > 19: cannot fit
	if err := s.Validate(); err == nil {
		t.Error("overfull family passed validation")
	}
}

// Property: for random valid-ish straight families, MaskedBy agrees with
// the direct definition on random probes.
func TestMaskedByProperty(t *testing.T) {
	f := func(seed uint8, probe uint16) bool {
		m, width, k := 90, 3, 6
		s := NewSet(m, width, grid.Shape{2}, k)
		base := int(seed) % m
		for g := 0; g < k; g++ {
			for z := 0; z < 2; z++ {
				s.SetValue(g, z, grid.Add(base, g*15, m))
			}
		}
		row := int(probe) % m
		want := -1
		for g := 0; g < k; g++ {
			if grid.InCyclicInterval(row, s.Value(g, 0), width, m) {
				want = g
				break
			}
		}
		return s.MaskedBy(0, row) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
