package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftnet/internal/wire"
)

// TestChurnFlagValidation pins the churn subcommand's input hardening:
// nonsense rates, horizons and counts must be rejected with a clear
// error before they reach the Gillespie generator. (main exits nonzero
// on any returned error.)
func TestChurnFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-arrival", "-0.5"}, "-arrival"},
		{[]string{"-arrival", "NaN"}, "-arrival"},
		{[]string{"-arrival", "+Inf"}, "-arrival"},
		{[]string{"-repair", "-1"}, "-repair"},
		{[]string{"-repair", "NaN"}, "-repair"},
		{[]string{"-horizon", "0"}, "-horizon"},
		{[]string{"-horizon", "-3"}, "-horizon"},
		{[]string{"-horizon", "NaN"}, "-horizon"},
		{[]string{"-workers", "-2"}, "-workers"},
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-burst-rate", "-1"}, "-burst-rate"},
		{[]string{"-burst-rate", "1", "-burst-size", "0"}, "-burst-size"},
	} {
		err := runChurn(tc.args)
		if err == nil {
			t.Errorf("churn %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("churn %v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestSubcommandsRun runs each one-shot subcommand once on a tiny host:
// each must build its host, do its work and return no error.
func TestSubcommandsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"random", runRandom, []string{"-side", "60"}},
		{"clique", runClique, []string{"-side", "20", "-p", "0.1"}},
		{"worstcase", runWorstcase, []string{"-side", "30", "-k", "5"}},
		{"health", runHealth, []string{"-side", "60"}},
		{"simulate", runSimulate, []string{"-side", "60", "-faults", "3"}},
		{"churn", runChurn, []string{"-side", "60", "-trials", "2", "-horizon", "1"}},
		{"edges", runEdges, []string{"-count", "2"}},
	} {
		if err := tc.run(tc.args); err != nil {
			t.Errorf("%s %v: %v", tc.name, tc.args, err)
		}
	}
}

// TestServeFlagValidation covers the serve-side boundaries added with
// the delta ring: a ring must hold at least one record.
func TestServeFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-delta-ring", "0"}, "-delta-ring"},
		{[]string{"-delta-ring", "-1"}, "-delta-ring"},
		{[]string{"-flush-interval", "-1s"}, "-flush-interval"},
	} {
		err := runServe(tc.args)
		if err == nil {
			t.Errorf("serve %v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestWireFlagValidation pins the offline decoder's contract: -in is
// mandatory, and a delta payload without its -base full snapshot is an
// explicit error, never a silently partial decode.
func TestWireFlagValidation(t *testing.T) {
	if err := runWire(nil); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Errorf("wire without -in: %v", err)
	}
	if err := runWire([]string{"-in", filepath.Join(t.TempDir(), "nope.bin")}); err == nil {
		t.Error("wire with missing file accepted")
	}

	delta, err := wire.EncodeDelta(&wire.Delta{
		Topology: "t", FromGeneration: 0, ToGeneration: 1,
		Side: 2, Dims: 2, Faults: []int{},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "delta.bin")
	if err := os.WriteFile(path, delta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWire([]string{"-in", path}); err == nil || !strings.Contains(err.Error(), "-base") {
		t.Errorf("wire delta without -base: %v", err)
	}
}
