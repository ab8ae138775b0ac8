// Package analysis is a stdlib-only mini-framework (go/parser + go/ast +
// go/types; no x/tools, matching the module's zero-dependency
// constraint) for the repo's custom static analyzers. The reproduction
// rests on invariants the compiler never sees — bit-identical results
// across worker counts, wait-free atomic snapshots, allocation-free hot
// paths, the fterr error taxonomy, no code that only tests call — and
// probabilistic tests only catch a violation if the seed happens to hit
// it. The analyzer subpackages (determinism, atomics, hotpath, errcodes,
// unused) hold those contracts mechanically; this package provides what
// they share:
//
//   - LoadModule: walks the module, parses every non-test file and
//     type-checks every package in dependency order (stdlib imports are
//     type-checked from GOROOT source, so the driver needs nothing but
//     the Go tree itself).
//   - Pass / Analyzer: the per-package unit of work, plus an optional
//     Finish hook for analyzers whose rule is a cross-package property
//     (the atomics analyzer: a field atomic anywhere must be atomic
//     everywhere).
//   - lint:allow escapes: a "//lint:allow <analyzer> <justification>"
//     comment suppresses exactly one diagnostic of that analyzer on its
//     own line or the line below. Allows without a justification, and
//     allows that suppress nothing, are themselves violations — every
//     escape in the tree is visible, explained, and load-bearing.
//   - RunGolden: the testdata harness matching diagnostics against
//     "// want \"regex\"" expectations, so each analyzer's self-test
//     proves it still catches its seeded violations.
//
// The command wired into CI is scripts/linters/ftnetvet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass hands one type-checked package to an analyzer's Run.
type Pass struct {
	// Fset is the module-wide file set (shared across packages, so
	// positions and object identities are comparable between passes).
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's resolutions (Uses, Defs,
	// Selections, Types) for the package's files.
	Info *types.Info

	analyzer string
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule set. Run is invoked once per matched
// package; Finish, if set, is invoked once after every package has been
// seen — the hook for cross-package rules, which accumulate facts in
// Run (closing over state from a New constructor) and report here.
type Analyzer struct {
	Name string
	Doc  string
	// Match filters packages by import path; nil matches every package.
	Match func(pkgPath string) bool
	Run   func(*Pass)
	// Finish reports accumulated cross-package findings. Positions were
	// resolved during Run, so it reports Diagnostics directly.
	Finish func(report func(Diagnostic))
}

// RunAnalyzers applies each analyzer to every matched package of the
// module, runs Finish hooks, applies lint:allow escapes, and returns
// the surviving diagnostics in deterministic position order (allow
// misuses — missing justification, suppressing nothing — are appended
// as diagnostics of the pseudo-analyzer "allow").
func RunAnalyzers(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range m.Pkgs {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			a.Run(&Pass{
				Fset:     m.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a.Name,
				sink:     &diags,
			})
		}
		if a.Finish != nil {
			a.Finish(func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			})
		}
	}
	sortDiagnostics(diags)
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var files []*ast.File
	for _, pkg := range m.Pkgs {
		files = append(files, pkg.Files...)
	}
	return applyAllows(m.Fset, files, diags, ran)
}

// InDirs builds a Match function accepting exactly the packages at the
// given module-relative directories ("." means the module root).
func InDirs(modulePath string, dirs ...string) func(string) bool {
	set := map[string]bool{}
	for _, d := range dirs {
		if d == "." {
			set[modulePath] = true
		} else {
			set[modulePath+"/"+d] = true
		}
	}
	return func(pkgPath string) bool { return set[pkgPath] }
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
