package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// runner must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetrics pins the runner's metric and workload tables to
// BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, runner declares %+v", decl.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer = %+v, runner declares %+v", decl.PerLayer, perLayerDefs)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, runner has %v", names, want)
	}
	if len(endToEndDefs) > 16 || len(perLayerDefs) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEndDefs), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestShortPasses runs every workload on tiny inputs: once untraced and
// twice traced with one seed. Every run must be correct and report
// exactly the declared metrics; end-to-end values and per-layer times
// must be positive, and the per-layer counts must repeat exactly.
func TestShortPasses(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, seconds: 1, short: true, builds: 1, log: testLog{t}}
			res, _, err := execute(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndDefs)
			for _, d := range endToEndDefs {
				if v := res.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, v)
				}
			}

			cfg.trace = true
			var passes [2]result
			for i := range passes {
				cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				if passes[i], _, err = execute(w, cfg); err != nil {
					t.Fatal(err)
				}
				checkResult(t, passes[i], perLayerDefs)
				checkSpans(t, cfg.spans)
			}
			for _, d := range perLayerDefs {
				a, b := passes[0].Metrics[d.Name].Value, passes[1].Metrics[d.Name].Value
				switch d.Unit {
				case "count":
					if a != b {
						t.Errorf("count %s differs between passes: %v vs %v", d.Name, a, b)
					}
				case "ms", "us", "s":
					if !(a > 0) {
						t.Errorf("per-layer time %s = %v, want > 0", d.Name, a)
					}
				}
			}
		})
	}
}

func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// checkSpans reads a span file back: one span per line, each with a
// name and an end not before its start.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n+1, err)
		}
		if s.Name == "" || s.End < s.Start || s.ID == 0 {
			t.Fatalf("span line %d malformed: %+v", n+1, s)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no spans written")
	}
}

// testLog routes a run's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
