// Command bench is the repository's one benchmark: four named workloads
// that drive ftnet through its public layers, timed end to end and, in a
// separate traced run, at every layer boundary the benchmark calls into.
//
//	bash bench/run.sh --workload churn-d2 --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package from source and runs it from the root of a
// checkout. Every input is generated from --seed before timing starts,
// every output is checked against the dense oracle, and the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see metrics.go and README.md). --runs N runs N seeds in
// child processes and prints each metric's median, quartiles and spread.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings, shared by every workload.
type runConfig struct {
	seed    uint64
	seconds float64 // timed budget, split evenly between the two phases of a traced run
	trace   bool
	short   bool   // tiny hosts and fixed op counts (the self-test)
	builds  int    // host constructions; setup_s is their median
	repeat  bool   // a later process of a run: process 0 checked the outputs all processes share
	spans   string // traced run: where to write the spans
	log     io.Writer
}

// phases splits the timed part of a closed-loop run into the untraced
// phase and, in a traced run, a traced phase of equal length: by wall
// time, or by op count in a short run. Untimed work inside a phase (the
// oracle checks) is paused out of its clock.
type phases struct {
	count  int           // 1, or 2 in a traced run
	perDur time.Duration // wall time per phase (0 in a short run)
	perOps int           // ops per phase in a short run
	tr     *tracer

	cur      int
	ops      int
	start    time.Time
	untimed  time.Duration
	measured time.Duration // timed wall time of the untraced phase
}

func newPhases(cfg runConfig, shortOps int, tr *tracer) *phases {
	p := &phases{count: 1, tr: tr}
	if cfg.trace {
		p.count = 2
	}
	if cfg.short {
		p.perOps = shortOps
	} else {
		p.perDur = time.Duration(cfg.seconds / float64(p.count) * float64(time.Second))
	}
	return p
}

// advance is called before each timed op. It reports whether the op is
// traced, and false once every phase is over.
func (p *phases) advance() (traced, ok bool) {
	if p.start.IsZero() {
		p.start, p.untimed = time.Now(), 0 // pauses during the warmup are not the phase's
	}
	for p.full() {
		p.close()
		if p.cur++; p.cur == p.count {
			return false, false
		}
		p.start, p.ops, p.untimed = time.Now(), 0, 0
		p.tr.begin()
	}
	p.ops++
	return p.cur == 1, true
}

func (p *phases) full() bool {
	if p.perOps > 0 {
		return p.ops >= p.perOps
	}
	return time.Since(p.start)-p.untimed >= p.perDur
}

func (p *phases) close() {
	switch p.cur {
	case 0:
		p.measured = time.Since(p.start) - p.untimed
	case 1:
		p.tr.finish()
	}
}

// pause excludes d of untimed work from the current phase.
func (p *phases) pause(d time.Duration) { p.untimed += d }

// end closes the phase in progress when the inputs ran out first.
func (p *phases) end() {
	if p.cur < p.count && !p.start.IsZero() {
		p.close()
		p.cur = p.count
	}
}

// workload is one named set of generated inputs and the loop that
// replays them. BENCHMARK.json and README.md say why each exists.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"churn-d2", runChurnD2},
	{"churn-d3", runChurnD3},
	{"serve-d2", runServe},
	{"montecarlo-d2", runMonteCarlo},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds (a traced run splits them between an untraced and a traced half)")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
	spans := fs.String("spans", "", "traced run: span file (default .bench_build/spans/<workload>-<seed>.jsonl)")
	runs := fs.Int("runs", 0, "run this many consecutive seeds in child processes and summarize each metric's spread")
	process := fs.Int("process", -1, "internal: measure as process i of an untraced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		fmt.Fprintf(stderr, "bench: --seconds must be positive and finite, got %v\n", *seconds)
		return 2
	case *runs < 0:
		fmt.Fprintf(stderr, "bench: --runs must be >= 0, got %d\n", *runs)
		return 2
	}
	if *runs > 0 {
		if err := runSeeds(stdout, stderr, w.name, *seed, *seconds, *traceFlag == 1, *runs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, spans: *spans, log: stderr, builds: 3}
	var (
		res result
		rec runRecord
		err error
	)
	switch {
	case cfg.trace:
		if cfg.spans == "" {
			cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		}
		res, rec, err = execute(w, cfg)
	case *process >= 0:
		cfg.builds, cfg.repeat = 1, *process > 0
		res, rec, err = execute(w, cfg)
	default:
		res, rec, err = runProcesses(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, rec, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord identifies what ran, on what, from which inputs: two runs
// with equal digests replayed identical inputs.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Processes  int               `json:"processes"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu"`
	Commit     string            `json:"commit"`
	Inputs     map[string]string `json:"inputs"`
	Digests    map[string]string `json:"digests"`
}

// execute runs one workload and turns its outcome into the metric set
// of the run's mode.
func execute(w workload, cfg runConfig) (result, runRecord, error) {
	out, err := w.run(cfg)
	if err != nil {
		return result{}, runRecord{}, err
	}
	var metrics map[string]metric
	if cfg.trace {
		metrics = out.perLayer()
		if err := out.tr.write(cfg.spans); err != nil {
			return result{}, runRecord{}, err
		}
	} else {
		metrics = out.endToEnd()
	}
	rec := runRecord{
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Processes:  1,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Inputs:     out.inputs,
		Digests:    out.digests,
	}
	res := result{
		Correct:   out.failed == 0 && len(out.checkFailures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed + int64(len(out.checkFailures)),
		Metrics:   metrics,
	}
	for _, f := range out.checkFailures {
		fmt.Fprintf(cfg.log, "bench: %s: check failed: %s\n", w.name, f)
	}
	if cfg.trace {
		out.tr.printLayers(cfg.log)
	}
	return res, rec, nil
}

// report prints the run record, every metric by name and unit, and the
// result line last.
func report(stdout io.Writer, rec runRecord, res result) error {
	bw := bufio.NewWriter(stdout)
	recJSON, err := json.Marshal(struct {
		Run runRecord `json:"run"`
	}{rec})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", recJSON)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(bw, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", resJSON)
	return bw.Flush()
}

// cpuModel reads the first CPU model name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a source tree without .git records none).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
