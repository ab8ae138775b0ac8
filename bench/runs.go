package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// processes is how many fresh processes an untraced run measures in, one
// after another, each for its share of the run's seconds and on the same
// inputs. On a shared VM a process's speed depends on where its memory
// lands and shifts all of its ops alike: on a 2-vCPU Intel Xeon VM, the
// processes of one d=3 run fell into a fast group (15-19 ms per event)
// and a slow one (22-26 ms), about half each, so a median over them
// flipped between the groups from run to run. A run therefore reports
// the fastest process's op latency and throughput (a real slowdown slows
// every process), and the median of the set-up times and live heaps.
const processes = 7

// runProcesses measures an untraced run in fresh child processes and
// combines their results.
func runProcesses(w workload, cfg runConfig) (result, runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, runRecord{}, err
	}
	var (
		rec     runRecord
		results []result
		agree   = true
	)
	for k := 0; k < processes; k++ {
		stdout, err := runSelf(exe, cfg.log, "--workload", w.name, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds/processes, 'g', -1, 64), "--trace", "0", "--process", strconv.Itoa(k))
		if err != nil {
			return result{}, runRecord{}, fmt.Errorf("process %d: %w", k, err)
		}
		childRec, res, err := parseRun(stdout)
		if err != nil {
			return result{}, runRecord{}, fmt.Errorf("process %d: %w", k, err)
		}
		if k == 0 {
			rec = childRec
		} else if !maps.Equal(childRec.Digests, rec.Digests) {
			agree = false
		}
		results = append(results, res)
		fmt.Fprintf(cfg.log, "bench: %s process %d: op_ms_p50 %.6g ops_per_s %.6g\n", w.name, k,
			res.Metrics["op_ms_p50"].Value, res.Metrics["ops_per_s"].Value)
	}
	rec.Seconds, rec.Processes = cfg.seconds, processes
	out := result{Correct: agree, Metrics: map[string]metric{}}
	if !agree {
		out.Failed++
		fmt.Fprintf(cfg.log, "bench: %s: processes disagree on the inputs or outputs they share\n", w.name)
	}
	for _, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
	}
	for _, d := range endToEndDefs {
		xs := make([]float64, len(results))
		for i, res := range results {
			xs[i] = res.Metrics[d.Name].Value
		}
		var v float64
		switch d.Name {
		case "op_ms_p50":
			v = slices.Min(xs)
		case "ops_per_s":
			v = slices.Max(xs)
		default:
			_, v, _ = spreadQuartiles(xs)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, rec, nil
}

// runSelf runs this binary with args, passing its diagnostics through,
// and returns its standard output.
func runSelf(exe string, stderr io.Writer, args ...string) ([]byte, error) {
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	err := cmd.Run()
	return buf.Bytes(), err
}

// parseRun reads a run's record (first line) and result (last line).
func parseRun(stdout []byte) (runRecord, result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var rec struct {
		Run runRecord `json:"run"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		return runRecord{}, result{}, fmt.Errorf("no run record: %w", err)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runRecord{}, result{}, fmt.Errorf("no result line: %w", err)
	}
	return rec.Run, res, nil
}

// runSeeds runs one workload for n consecutive seeds, each run in its
// own child process as separate invocations would, and prints every metric's
// median, quartiles and spread (interquartile distance over the median,
// as Python's statistics.quantiles computes them). An end-to-end metric
// whose spread exceeds its bound is flagged: it cannot tell a regression
// of that size from noise, and belongs in the per-layer set.
func runSeeds(stdout, stderr io.Writer, name string, seed uint64, seconds float64, trace bool, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failed int64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		out, err := runSelf(exe, stderr, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		_, res, err := parseRun(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			fmt.Fprintf(stdout, "seed %d: NOT CORRECT (%d failed of %d)\n", s, res.Failed, res.Attempted)
		}
		failed += res.Failed
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	bounds := map[string]float64{}
	for _, d := range endToEndDefs {
		bounds[d.Name] = d.Bound
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, %d failed\n", name, n, seed, seed+uint64(n)-1, failed)
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, med, q3 := spreadQuartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag := ""
		b, bounded := bounds[k]
		switch {
		case !bounded || k == "setup_s":
		case spread > b:
			flag = "  FLAG: spread exceeds bound"
		case spread > b/3:
			flag = "  spread above a third of the bound"
		}
		bound := "-"
		if bounded {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
		}
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %12.6g %8.4f %6s %s%s\n", k, q1, med, q3, spread, bound, units[k], flag)
	}
	return nil
}
