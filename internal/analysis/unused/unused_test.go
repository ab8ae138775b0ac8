package unused_test

import (
	"testing"

	"ftnet/internal/analysis"
	"ftnet/internal/analysis/unused"
)

func TestGolden(t *testing.T) {
	analysis.RunGolden(t, unused.New(), "testdata/dead")
}

// TestAllowConsumed runs the golden through the allow filter: the
// escaped helper's finding is suppressed, the escape is not stale, and
// every other seeded finding survives.
func TestAllowConsumed(t *testing.T) {
	m, _, err := analysis.LoadDir("testdata/dead")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunAnalyzers(m, []*analysis.Analyzer{unused.New()})
	const want = 8 // the golden's wants, less the escaped helper
	for _, d := range diags {
		if d.Analyzer != "unused" {
			t.Errorf("unexpected %s", d)
		}
	}
	if len(diags) != want {
		t.Errorf("got %d diagnostics, want %d:\n%v", len(diags), want, diags)
	}
}
