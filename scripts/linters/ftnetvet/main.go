// Command ftnetvet runs the repo's analyzer suite (internal/analysis)
// over the whole module: the compile-time half of the contracts the
// probabilistic tests can only spot-check.
//
//	determinism — no wall clock / math/rand in engine packages; range
//	              over a map may not leak iteration order into
//	              committed state (appends without a sort, channel
//	              sends, non-commutative accumulation); no go
//	              statement outside the internal/parallel trial pool.
//	atomics     — a struct field accessed through sync/atomic anywhere
//	              must be accessed atomically everywhere.
//	hotpath     — //ftnet:hotpath functions contain no allocation
//	              constructs (make/new/literals/stray appends/fmt/
//	              string concat/capturing closures).
//	errcodes    — errors on the public failure surface carry fterr
//	              codes (errors.New forbidden, fmt.Errorf needs %w).
//	unused      — every declaration is referenced by some non-test
//	              code (delete it, move it into its tests, or allow
//	              it when other packages' tests import it).
//
// A finding that is audited and genuinely safe escapes with
// "//lint:allow <analyzer> <justification>" — the justification is
// mandatory, each escape suppresses exactly one diagnostic, and stale
// escapes are themselves errors.
//
// Usage: go run ./scripts/linters/ftnetvet [module root]
//
// Exit codes (script-stable): 0 clean, 1 violations, 2 load error.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ftnet/internal/analysis"
	"ftnet/internal/analysis/atomics"
	"ftnet/internal/analysis/determinism"
	"ftnet/internal/analysis/errcodes"
	"ftnet/internal/analysis/hotpath"
	"ftnet/internal/analysis/unused"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftnetvet:", err)
		os.Exit(2)
	}
	diags := analysis.RunAnalyzers(mod, []*analysis.Analyzer{
		determinism.New(mod.Path),
		atomics.New(),
		hotpath.New(),
		errcodes.New(mod.Path),
		unused.New(),
	})
	if len(diags) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "ftnetvet: %d violation(s):\n", len(diags))
	for _, d := range diags {
		if rel, err := filepath.Rel(mod.Root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(os.Stderr, "  "+d.String())
	}
	os.Exit(1)
}
