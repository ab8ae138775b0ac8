package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func quickConfig(buf *bytes.Buffer) Config {
	return Config{Out: buf, Quick: true, Seed: 12345}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A3", "A4", "E1", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.PaperClaim == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E1"); !ok {
		t.Error("E1 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(quickConfig(&buf), "EXX"); err == nil {
		t.Error("unknown id should error")
	}
}

// Each experiment runs end-to-end in quick mode. These are the paper's
// tables; failures mean a claim stopped reproducing.

func runOne(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(quickConfig(&buf), id); err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", id, err, buf.String())
	}
	return buf.String()
}

func TestE1(t *testing.T) {
	out := runOne(t, "E1")
	if !strings.Contains(out, "6d-2") {
		t.Errorf("E1 output missing degree column:\n%s", out)
	}
}

func TestE2(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	out := runOne(t, "E2")
	if !strings.Contains(out, "p_thm") {
		t.Errorf("E2 output:\n%s", out)
	}
}

func TestE3(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	runOne(t, "E3")
}

func TestE4(t *testing.T) {
	runOne(t, "E4")
}

func TestE5(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	runOne(t, "E5")
}

func TestE7(t *testing.T) {
	out := runOne(t, "E7")
	if !strings.Contains(out, "6/6") {
		t.Errorf("E7 should tolerate all six adversaries:\n%s", out)
	}
}

func TestE8(t *testing.T) {
	runOne(t, "E8")
}

func TestE9(t *testing.T) {
	out := runOne(t, "E9")
	if !strings.Contains(out, "true") {
		t.Errorf("E9 should report tolerance:\n%s", out)
	}
}

// E6 has no test here: its quick mode takes 20-27 s on 2 vCPUs, 41% of
// it in Bernoulli sampling at Theorem 1's constant rates, 27% in
// supernode.Embed and 19% in the cluster baseline's verification.

func TestE10(t *testing.T) {
	out := runOne(t, "E10")
	if !strings.Contains(out, "measured max faults") {
		t.Errorf("E10 output:\n%s", out)
	}
}

func TestE11(t *testing.T) {
	if testing.Short() {
		t.Skip("path search")
	}
	out := runOne(t, "E11")
	if !strings.Contains(out, "expansion certified") {
		t.Errorf("E11 output:\n%s", out)
	}
}

func TestE12Figures(t *testing.T) {
	out := runOne(t, "E12")
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Figure 2") {
		t.Errorf("E12 output missing figures:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "X") {
		t.Errorf("E12 figures missing glyphs:\n%s", out)
	}
}

func TestA1Ablation(t *testing.T) {
	out := runOne(t, "A1")
	if !strings.Contains(out, "fails (as predicted)") {
		t.Errorf("A1 output:\n%s", out)
	}
}

func TestA3Ablation(t *testing.T) {
	out := runOne(t, "A3")
	if !strings.Contains(out, "survived") {
		t.Errorf("A3 output:\n%s", out)
	}
}

func TestA4Ablation(t *testing.T) {
	out := runOne(t, "A4")
	if !strings.Contains(out, "p50/p_thm") {
		t.Errorf("A4 output:\n%s", out)
	}
}

func TestE13(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	out := runOne(t, "E13")
	if !strings.Contains(out, "constant") {
		t.Errorf("E13 output:\n%s", out)
	}
}

func TestE14(t *testing.T) {
	out := runOne(t, "E14")
	if !strings.Contains(out, "area factor") {
		t.Errorf("E14 output:\n%s", out)
	}
}

func TestE15(t *testing.T) {
	if testing.Short() {
		t.Skip("BFS sampling")
	}
	out := runOne(t, "E15")
	if !strings.Contains(out, "stretch") {
		t.Errorf("E15 output:\n%s", out)
	}
}

func TestE16(t *testing.T) {
	if testing.Short() {
		t.Skip("churn lifetime sweep")
	}
	out := runOne(t, "E16")
	if !strings.Contains(out, "rate-invariant") {
		t.Errorf("E16 output:\n%s", out)
	}
}

func TestE17(t *testing.T) {
	if testing.Short() {
		t.Skip("churn availability sweep")
	}
	out := runOne(t, "E17")
	if !strings.Contains(out, "availability crosses") {
		t.Errorf("E17 output:\n%s", out)
	}
}
