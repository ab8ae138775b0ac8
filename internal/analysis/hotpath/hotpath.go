// Package hotpath enforces the trial path's O(footprint),
// allocation-free contract statically. Functions annotated with a
// "//ftnet:hotpath" doc-comment line (colEval, verifyColumn, the
// Session delta path, fault.Set's record/skip samplers, the wire
// appenders and map checksum) run millions of times per
// experiment; one allocation snuck into them turns a flat profile into
// a GC treadmill, and alloc benchmarks only catch it on the benchmarked
// configuration. Inside an annotated function the analyzer forbids:
//
//   - make / new, and map or slice composite literals
//   - append to a slice not derived from a parameter or receiver
//     (scratch buffers hang off the receiver; a local qualifies only
//     when every assignment to it re-slices or returns caller-owned
//     storage, e.g. moved := sc.movedBuf[:0])
//   - fmt.* calls and string concatenation
//   - closures capturing enclosing variables (the capture forces a
//     heap allocation per call)
//
// Audited cold branches (error paths, callbacks that provably stay on
// the stack) escape with "//lint:allow hotpath <why>". TestHotPathAllocs is the
// runtime cross-check: AllocsPerRun pins the same functions to zero.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ftnet/internal/analysis"
)

// Marker is the annotation that opts a function into the rules.
const Marker = "ftnet:hotpath"

// New returns the hotpath analyzer. It matches every package: the
// annotation, not the package, selects the functions.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotpath",
		Doc:  "forbid allocation constructs in //ftnet:hotpath-annotated functions",
		Run:  run,
	}
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotated(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
}

func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//"+Marker {
			return true
		}
	}
	return false
}

// paramObjects collects the function's parameters and receiver — the
// only roots append may grow, since their backing arrays are the
// caller's pre-sized scratch.
func paramObjects(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	params := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return params
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := paramObjects(pass, fd)
	blessed := blessedLocals(pass, fd, params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			reportCapture(pass, fd, v)
			return false // the closure body lives off the hot path

		case *ast.CompositeLit:
			tv, ok := pass.Info.Types[v]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(v.Pos(), "map literal in hot path %s allocates", fd.Name.Name)
			case *types.Slice:
				pass.Reportf(v.Pos(), "slice literal in hot path %s allocates", fd.Name.Name)
			}

		case *ast.CallExpr:
			switch {
			case analysis.IsBuiltin(pass.Info, v, "make"):
				pass.Reportf(v.Pos(), "make in hot path %s allocates", fd.Name.Name)
			case analysis.IsBuiltin(pass.Info, v, "new"):
				pass.Reportf(v.Pos(), "new in hot path %s allocates", fd.Name.Name)
			case analysis.IsBuiltin(pass.Info, v, "append"):
				checkAppend(pass, fd, v, params, blessed)
			default:
				if fn := analysis.FuncObj(pass.Info, v); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					pass.Reportf(v.Pos(), "fmt.%s in hot path %s allocates and formats", fn.Name(), fd.Name.Name)
				}
			}

		case *ast.BinaryExpr:
			if v.Op == token.ADD && isString(pass, v.X) {
				pass.Reportf(v.Pos(), "string concatenation in hot path %s allocates", fd.Name.Name)
			}

		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isString(pass, v.Lhs[0]) {
				pass.Reportf(v.Pos(), "string concatenation in hot path %s allocates", fd.Name.Name)
			}
		}
		return true
	})
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkAppend allows growth only of slices whose storage the caller
// owns: parameters, the receiver, and blessed locals (every assignment
// derives from caller-owned storage — see blessedLocals). Appending to
// any other local or package-level slice has no capacity contract and
// will allocate once the backing array runs out.
func checkAppend(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, params, blessed map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	root := analysis.RootIdent(call.Args[0])
	if root == nil {
		pass.Reportf(call.Pos(), "append to a non-parameter slice in hot path %s may allocate", fd.Name.Name)
		return
	}
	obj := pass.Info.Uses[root]
	if obj == nil {
		obj = pass.Info.Defs[root]
	}
	if obj != nil && (params[obj] || blessed[obj]) {
		return
	}
	pass.Reportf(call.Pos(), "append to %q in hot path %s: only slices derived from a parameter or receiver (caller-sized scratch) may grow", root.Name, fd.Name.Name)
}

// blessedLocals computes, as a fixpoint, the locals whose backing
// storage provably belongs to a parameter or the receiver: every
// assignment's right-hand side must derive — through re-slicing, field
// selection, indexing, or a method call on caller-owned storage (a
// scratch accessor like sc.queueBuf(n)) — from a parameter, the
// receiver, or an already-blessed local. A self-referencing update
// (moved = append(moved, x)) neither blesses nor taints.
func blessedLocals(pass *analysis.Pass, fd *ast.FuncDecl, params map[types.Object]bool) map[types.Object]bool {
	// Gather every assignment target and its derivation root.
	type source struct {
		self bool         // RHS roots at the target itself
		root types.Object // nil when the root is unresolvable
	}
	sources := map[types.Object][]source{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil || params[obj] {
			return
		}
		var src source
		if root := derivationRoot(rhs); root != nil {
			o := pass.Info.Uses[root]
			if o == nil {
				o = pass.Info.Defs[root]
			}
			src = source{self: o == obj, root: o}
		}
		sources[obj] = append(sources[obj], src)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			record(lhs, st.Rhs[i])
		}
		return true
	})

	blessed := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for obj, srcs := range sources {
			if blessed[obj] {
				continue
			}
			ok, real := true, false
			for _, s := range srcs {
				if s.self {
					continue
				}
				if s.root == nil || !(params[s.root] || blessed[s.root]) {
					ok = false
					break
				}
				real = true
			}
			// At least one non-self caller-derived source is required: a
			// zero-value local that only ever self-appends owns no storage.
			if ok && real {
				blessed[obj] = true
				changed = true
			}
		}
	}
	return blessed
}

// derivationRoot peels an expression down to the identifier its storage
// derives from: selectors, indexing, slicing and dereferences pass
// through; append derives from its first argument; a method call
// derives from its receiver (scratch accessors hand out caller-owned
// buffers). Anything else — a plain function call, a literal — has no
// caller-owned root and returns nil.
func derivationRoot(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.CallExpr:
			if fun, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
				e = fun.X // method call: derive from the receiver
				continue
			}
			if len(v.Args) > 0 {
				if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" {
					e = v.Args[0]
					continue
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// reportCapture flags closures that capture enclosing variables — the
// capture boxes the variable and the closure itself escapes to the
// heap. A literal capturing nothing compiles to a static function and
// passes.
func reportCapture(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	seen := map[types.Object]bool{}
	var captured []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal. Parameters and receiver count too.
		if analysis.DeclaredWithin(obj, fd) && !analysis.DeclaredWithin(obj, lit) {
			seen[obj] = true
			captured = append(captured, obj.Name())
		}
		return true
	})
	if len(captured) > 0 {
		sort.Strings(captured)
		pass.Reportf(lit.Pos(), "closure in hot path %s captures %s by reference (heap-allocates)", fd.Name.Name, strings.Join(captured, ", "))
	}
}
