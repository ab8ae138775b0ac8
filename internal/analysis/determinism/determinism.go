// Package determinism enforces the engine packages' bit-identical
// replay contract statically. Every engine (parallel Monte-Carlo,
// rate ladders, churn, Session deltas) promises identical results for
// identical seeds across worker counts; the two classic ways to break
// that silently are wall-clock/ambient randomness inputs and the
// random iteration order of Go maps leaking into committed state.
// TestParallelDeterminism* only catches a violation when a seed happens
// to hit it — this analyzer rejects the constructs outright:
//
//   - time.Now / time.Since and imports of math/rand (or v2) are
//     forbidden in engine packages; randomness routes through
//     internal/rng, timing through the drivers.
//   - range over a map may not leak iteration order: no channel sends,
//     no appends to slices that are not subsequently sorted, no float
//     or string accumulation (those operations do not commute), and no
//     order-dependent writes (last-writer-wins on a loop variable).
//   - go statements are forbidden outside internal/parallel: the trial
//     pool is the engine's single layer of parallelism, so a trial never
//     fans out inside a pool that already fills the CPUs.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"ftnet/internal/analysis"
)

// EnginePackages lists the module-relative directories whose code must
// replay bit-identically. internal/rng is included: it implements the
// generators and must not itself lean on ambient randomness.
var EnginePackages = []string{
	"internal/core",
	"internal/parallel",
	"internal/churn",
	"internal/sweep",
	"internal/fault",
	"internal/bands",
	"internal/embed",
	"internal/rng",
}

// New returns the determinism analyzer. modulePath scopes Match to the
// engine packages; the golden harness calls Run directly and may pass
// "".
func New(modulePath string) *analysis.Analyzer {
	pool := modulePath + "/internal/parallel"
	a := &analysis.Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock/math-rand inputs, map-iteration-order leaks and goroutines outside the trial pool in engine packages",
		Run:  func(pass *analysis.Pass) { run(pass, pass.Path == pool) },
	}
	if modulePath != "" {
		a.Match = analysis.InDirs(modulePath, EnginePackages...)
	}
	return a
}

func run(pass *analysis.Pass, isPool bool) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in an engine package: randomness must route through internal/rng", p)
			}
		}

		// time.Now/Since: resolved through Uses, so aliased imports and
		// method-value references are caught alike.
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Ident:
				if fn, ok := pass.Info.Uses[v].(*types.Func); ok && analysis.IsPkgFunc(fn, "time", "Now", "Since") {
					pass.Reportf(v.Pos(), "time.%s in an engine package: wall-clock input breaks bit-identical replay", fn.Name())
				}
			case *ast.GoStmt:
				if !isPool {
					pass.Reportf(v.Pos(), "go statement in an engine package: the internal/parallel trial pool is the only goroutine source")
				}
			}
			return true
		})

		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFuncBody(pass, fd.Body)
			}
		}
	}
}

// checkFuncBody finds every range-over-map in one function body,
// attributing each to this body so the collect-then-sort pattern is
// recognized. Function literals start their own scope: a sort inside a
// closure does not launder an append in the enclosing function, and
// vice versa.
func checkFuncBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			checkFuncBody(pass, v.Body)
			return false
		case *ast.RangeStmt:
			if isMapRange(pass, v) {
				checkMapRange(pass, v, body)
			}
		}
		return true
	})
}

func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one range-over-map body for order leaks.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, encBody *ast.BlockStmt) {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			loopVars[obj] = true
		} else if obj := pass.Info.Uses[id]; obj != nil {
			loopVars[obj] = true
		}
	}
	mentionsLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pass.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	type appendSite struct {
		obj types.Object
		pos token.Pos
	}
	var appends []appendSite

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			if st != rs && isMapRange(pass, st) {
				return false // the nested map loop reports for itself
			}
		case *ast.SendStmt:
			pass.Reportf(st.Pos(), "channel send inside range over a map: map iteration order is random, so delivery order is nondeterministic")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, st, loopVars, mentionsLoopVar, func(obj types.Object, pos token.Pos) {
				appends = append(appends, appendSite{obj, pos})
			})
		}
		return true
	})

	for _, ap := range appends {
		if encBody != nil && sortedAfter(pass, encBody, rs.End(), ap.obj) {
			continue
		}
		pass.Reportf(ap.pos, "append to %q inside range over a map without a subsequent sort: element order depends on map iteration order", ap.obj.Name())
	}
}

func checkMapRangeAssign(pass *analysis.Pass, rs *ast.RangeStmt, st *ast.AssignStmt,
	loopVars map[types.Object]bool, mentionsLoopVar func(ast.Expr) bool,
	recordAppend func(types.Object, token.Pos)) {

	for i, lhs := range st.Lhs {
		root := analysis.RootIdent(lhs)
		if root == nil {
			continue
		}
		obj := pass.Info.Uses[root]
		if obj == nil {
			obj = pass.Info.Defs[root]
		}
		if obj == nil || loopVars[obj] || analysis.DeclaredWithin(obj, rs.Body) {
			continue // loop-local state cannot leak order
		}

		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0]
		}

		// s = append(s, ...) — candidate; allowed iff sorted later.
		if rhs != nil {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && analysis.IsBuiltin(pass.Info, call, "append") {
				recordAppend(obj, st.Pos())
				continue
			}
		}

		tv, ok := pass.Info.Types[lhs]
		if !ok || tv.Type == nil {
			continue
		}
		basic, _ := tv.Type.Underlying().(*types.Basic)

		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			// Integer accumulation commutes; float and string do not.
			if basic != nil && basic.Info()&types.IsFloat != 0 {
				pass.Reportf(st.Pos(), "float accumulation into %q inside range over a map: addition order changes the result", obj.Name())
			} else if basic != nil && basic.Info()&types.IsString != 0 {
				pass.Reportf(st.Pos(), "string concatenation into %q inside range over a map: element order depends on map iteration order", obj.Name())
			}
		case token.ASSIGN:
			// Keyed writes (dst[k] = ...) commute across distinct keys.
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && mentionsLoopVar(ix.Index) {
				continue
			}
			if rhs != nil && mentionsLoopVar(rhs) {
				pass.Reportf(st.Pos(), "write to %q inside range over a map depends on iteration order (last writer wins)", obj.Name())
			}
		}
	}
}

// sortedAfter reports whether, somewhere after pos in the function
// body, obj is passed (anywhere in the argument trees) to a sort call
// — the canonical collect-then-sort pattern that launders map order.
// Nested function literals are skipped: a sort inside a closure runs on
// the closure's schedule (possibly never), so it launders nothing here.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := analysis.FuncObj(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
