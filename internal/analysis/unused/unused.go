// Package unused reports declarations that no non-test code in the
// module references: package-level funcs, methods, types, consts and
// vars, and unexported struct fields. The loader parses non-test files
// only, so a helper whose sole callers are its own unit tests reads as
// unused — production code kept alive by tests that pin nothing a
// program does. Each finding resolves one of three ways: delete the
// declaration (and the test cases that exercise nothing else), move it
// into the tests that use it as an oracle, or keep it under a
// "//lint:allow unused <why>" when other packages' tests import it (Go
// cannot share _test.go helpers across packages), so that the allow
// lines are the inventory of production code kept for tests.
//
// A reference counts when a non-test file resolves to the declaration
// through Info.Uses or Info.Selections (method values and method
// expressions included), or sets the field in an unkeyed composite
// literal. Instantiated generic members map to their origin. A
// reference inside the declaration itself (recursion) does not count,
// nor does a type's appearance in its own methods' receivers.
//
// Exempt: main, init and _; exported identifiers of the importable
// packages (neither main nor under internal/); exported struct fields,
// which JSON bodies reach by reflection; and a method whose receiver
// type, or its pointer, implements an interface declaring the method
// (every named interface of the loaded packages and their transitive
// imports, every interface type written in module code, and error) —
// calls through an interface resolve to the interface's method, never
// to the concrete one.
//
// The rule is cross-package, so Run accumulates and Finish reports.
package unused

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ftnet/internal/analysis"
)

type decl struct {
	obj   types.Object
	pos   token.Position
	label string
}

type state struct {
	decls  []decl
	used   map[types.Object]bool         // referenced from outside their own declaration
	ifaces map[string][]*types.Interface // method name -> interfaces declaring it
	seen   map[any]bool                  // visited packages and indexed interfaces
}

// New returns the unused analyzer. Each New call carries fresh
// accumulation state, so drivers can run suites repeatedly.
func New() *analysis.Analyzer {
	st := &state{
		used:   map[types.Object]bool{},
		ifaces: map[string][]*types.Interface{},
		seen:   map[any]bool{},
	}
	st.addIface(types.Universe.Lookup("error").Type())
	return &analysis.Analyzer{
		Name:   "unused",
		Doc:    "every declaration is referenced by some non-test code",
		Run:    st.run,
		Finish: st.finish,
	}
}

func (st *state) run(pass *analysis.Pass) {
	public := pass.Pkg.Name() != "main" && !strings.Contains("/"+pass.Path+"/", "/internal/")
	st.addPkg(pass.Pkg)
	for _, tv := range pass.Info.Types {
		st.addIface(tv.Type)
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				st.declare(pass, d.Name, public)
				st.markUses(pass, d, d.Recv, pass.Info.Defs[d.Name])
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var self []types.Object
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							st.declare(pass, name, public)
							self = append(self, pass.Info.Defs[name])
						}
					case *ast.TypeSpec:
						st.declare(pass, s.Name, public)
						st.declareFields(pass, s)
						self = append(self, pass.Info.Defs[s.Name])
					}
					st.markUses(pass, spec, nil, self...)
				}
			}
		}
	}
}

// declare registers the object defined at name as a candidate unless an
// exemption applies.
func (st *state) declare(pass *analysis.Pass, name *ast.Ident, public bool) {
	obj := pass.Info.Defs[name]
	if obj == nil || name.Name == "_" || (public && obj.Exported()) {
		return
	}
	label := ""
	switch o := obj.(type) {
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			if o.Name() == "main" || o.Name() == "init" {
				return
			}
			label = "func " + o.Name()
		} else {
			label = "method " + typeName(recv.Type()) + "." + o.Name()
		}
	case *types.TypeName:
		label = "type " + o.Name()
	case *types.Const:
		label = "const " + o.Name()
	case *types.Var:
		label = "var " + o.Name()
	default:
		return
	}
	st.decls = append(st.decls, decl{obj: obj, pos: pass.Fset.Position(name.Pos()), label: label})
}

// declareFields registers the unexported, non-embedded fields of every
// struct type written in the type declaration.
func (st *state) declareFields(pass *analysis.Pass, spec *ast.TypeSpec) {
	ast.Inspect(spec.Type, func(n ast.Node) bool {
		s, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range s.Fields.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				if obj == nil || name.Name == "_" || obj.Exported() {
					continue
				}
				st.decls = append(st.decls, decl{obj: obj, pos: pass.Fset.Position(name.Pos()),
					label: "field " + spec.Name.Name + "." + name.Name})
			}
		}
		return true
	})
}

// markUses marks every object referenced inside node as used, except the
// declaration's own objects (self) and anything in skip (a method's
// receiver list, where the type's appearance is not a use).
func (st *state) markUses(pass *analysis.Pass, node ast.Node, skip *ast.FieldList, self ...types.Object) {
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		for _, s := range self {
			if s == obj {
				return
			}
		}
		st.used[obj] = true
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FieldList:
			return n != skip
		case *ast.Ident:
			use(pass.Info.Uses[n])
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[n]; ok {
				use(sel.Obj())
			}
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if s, ok := pass.Info.TypeOf(n).Underlying().(*types.Struct); ok {
				for i := range n.Elts {
					use(s.Field(i))
				}
			}
		}
		return true
	})
}

// addPkg indexes the named interfaces of p and of everything it
// imports, transitively.
func (st *state) addPkg(p *types.Package) {
	if st.seen[p] {
		return
	}
	st.seen[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			st.addIface(tn.Type())
		}
	}
	for _, imp := range p.Imports() {
		st.addPkg(imp)
	}
}

// addIface indexes t by its method names if it is a non-generic
// interface with methods.
func (st *state) addIface(t types.Type) {
	if t == nil {
		return
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 || !it.IsMethodSet() || st.seen[it] {
		return
	}
	st.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		st.ifaces[name] = append(st.ifaces[name], it)
	}
}

// satisfies reports whether fn is a method whose receiver type, or its
// pointer, implements an indexed interface that declares it.
func (st *state) satisfies(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range st.ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func (st *state) finish(report func(analysis.Diagnostic)) {
	for _, d := range st.decls {
		if fn, ok := d.obj.(*types.Func); st.used[d.obj] || ok && st.satisfies(fn) {
			continue
		}
		report(analysis.Diagnostic{
			Pos: d.pos,
			Message: d.label + " is referenced by no non-test code: delete it, move it into the tests that use it," +
				" or add //lint:allow unused <why>",
		})
	}
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
