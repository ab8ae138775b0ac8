// Package main seeds the unused analyzer's golden. It is a main
// package, so no exported identifier is exempt as public API: every
// declaration must earn its keep through a reference from this file.
// The flagged cases carry wants; the rest pin the negative space —
// interface satisfaction (fmt.Stringer and an interface declared
// here), generic members reached only through an instantiation, a
// field set only by an unkeyed literal — and the escape a helper kept
// for other packages' tests uses.
package main

import "fmt"

func unusedFunc() {} // want "func unusedFunc is referenced by no non-test code"

// countdown calls only itself: recursion is not a use.
func countdown(n int) int { // want "func countdown is referenced by no non-test code"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

const unusedConst = 3 // want "const unusedConst is referenced by no non-test code"

var unusedVar = 4 // want "var unusedVar is referenced by no non-test code"

type point struct {
	x, y  int
	stale int // want "field point.stale is referenced by no non-test code"
}

func (p point) norm() int { return p.x*p.x + p.y*p.y }

func (p point) scaled(k int) point { return point{x: p.x * k, y: p.y * k} } // want "method point.scaled is referenced by no non-test code"

// String satisfies fmt.Stringer: fmt calls it through the interface.
func (p point) String() string { return fmt.Sprint(p.x, p.y) }

// orphan appears only in its own method's receiver, which is not a use.
type orphan struct{} // want "type orphan is referenced by no non-test code"

func (orphan) shout() {} // want "method orphan.shout is referenced by no non-test code"

type shape interface{ area() int }

type square struct{ side int }

// area satisfies shape, declared in this file.
func (s square) area() int { return s.side * s.side }

// box is generic: its field and method are reached only through
// box[int], whose members map back to these origins.
type box[T any] struct{ val T }

func (b *box[T]) get() T { return b.val }

// pair's fields are set only by the unkeyed literal in main.
type pair struct{ lo, hi int }

//lint:allow unused kept for the golden's escape case: other packages' tests call it
func testHelper() int { return 1 } // want "func testHelper is referenced by no non-test code"

func main() {
	p := point{x: 1, y: 2}
	var s shape = square{side: 2}
	b := &box[int]{}
	q := pair{1, 2}
	fmt.Println(p, p.norm(), s.area(), b.get(), q)
}
