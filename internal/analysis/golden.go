package analysis

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches one expectation inside a "// want" comment. Several
// quoted patterns may follow a single want marker.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	line    int
	pattern *regexp.Regexp
	matched bool
}

// RunGolden type-checks the testdata package at dir, runs the analyzer
// over it (Run plus Finish, without lint:allow filtering — goldens pin
// the raw rule), and matches every diagnostic against the package's
// "// want \"regexp\"" comments: a diagnostic must match a want on its
// line, and every want must be hit. This is the self-test proving each
// analyzer still catches its seeded violations — delete a want's
// violation (or break the analyzer) and the golden goes red.
//
//lint:allow unused every analyzer's golden test calls it, and Go cannot share _test.go helpers across packages
func RunGolden(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	m, pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				line := m.Fset.Position(c.Pos()).Line
				ms := wantRe.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Errorf("%s:%d: want comment with no quoted pattern", dir, line)
					continue
				}
				for _, qm := range ms {
					pat, err := strconv.Unquote(`"` + qm[1] + `"`)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", dir, line, qm[1], err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", dir, line, pat, err)
						continue
					}
					wants = append(wants, &expectation{line: line, pattern: re})
				}
			}
		}
	}

	var diags []Diagnostic
	a.Run(&Pass{
		Fset:     m.Fset,
		Path:     pkg.Path,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		analyzer: a.Name,
		sink:     &diags,
	})
	if a.Finish != nil {
		a.Finish(func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		})
	}
	sortDiagnostics(diags)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: line %d: no diagnostic matched want %q", dir, w.line, w.pattern)
		}
	}
}
