// Command ftnet builds the paper's fault-tolerant hosts, injects faults,
// and extracts (and verifies) the surviving torus.
//
// Usage:
//
//	ftnet random    -d 2 -side 400 -eps 0.5 [-p PROB] [-seed N] [-fig]
//	ftnet clique    -d 2 -side 400 -p 0.1 -q 0 -c 2.5 [-seed N]
//	ftnet worstcase -d 2 -side 100 -k 27 [-faults N] [-pattern cluster] [-seed N]
//	ftnet health    -side 400 -p 1e-5 [-seed N]
//	ftnet simulate  -side 200 -faults 10 [-steps N] [-seed N]
//	ftnet churn     -side 200 -arrival 2e-5 -repair 1 -horizon 20 [-edge-arrival R] [-edge-repair R] [-trials N] [-workers N] [-independent]
//	ftnet edges     -d 2 -side 64 -eps 0.5 -count 2
//	ftnet serve     -listen 127.0.0.1:8080 -topology id=main,d=2,side=200,eps=0.5 [-snapshot-dir DIR]
//	ftnet wire      -in payload.bin [-base full.bin]
//
// Each subcommand prints the host resources, the injected fault count,
// and whether a fault-free torus was extracted (extraction is always
// verified independently before being reported as a success). churn runs
// lifetime trials of a dynamic fault process — Poisson per-node
// arrivals and per-edge link flaps, exponential per-fault repairs,
// optional adversarial node and edge bursts — re-embedding
// incrementally after every event (internal/churn). serve runs the
// ftnetd daemon; wire decodes a binary embedding payload to the
// canonical JSON document for offline diffing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ftnet"
	"ftnet/internal/churn"
	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/parsim"
	"ftnet/internal/rng"
	"ftnet/internal/validate"
	"ftnet/internal/viz"
	"ftnet/internal/worstcase"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "random":
		err = runRandom(os.Args[2:])
	case "clique":
		err = runClique(os.Args[2:])
	case "worstcase":
		err = runWorstcase(os.Args[2:])
	case "health":
		err = runHealth(os.Args[2:])
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "churn":
		err = runChurn(os.Args[2:])
	case "edges":
		err = runEdges(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "wire":
		err = runWire(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftnet:", err)
		// Scripted callers branch on the exit code, mirroring the error
		// taxonomy's retry classes: 2 = terminal (fix the input or state),
		// 3 = retryable/resync (acting again may succeed). Usage errors
		// exit 2 via usage() below.
		if ftnet.Retryable(err) {
			os.Exit(3)
		}
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ftnet {random|clique|worstcase|health|simulate|churn|edges|serve|wire} [flags]   (run with -h for flags)")
	os.Exit(2)
}

// runHealth reports the Lemma 4 healthiness diagnostics for a random
// fault pattern, alongside whether constructive placement succeeds.
func runHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	side := fs.Int("side", 400, "minimum torus side")
	eps := fs.Float64("eps", 0.5, "maximum node redundancy")
	p := fs.Float64("p", 1e-5, "node failure probability")
	seed := fs.Uint64("seed", 1, "fault seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params, err := core.FitParams(2, *side, *eps)
	if err != nil {
		return err
	}
	g, err := core.NewGraph(params)
	if err != nil {
		return err
	}
	faults := fault.NewSet(g.NumNodes())
	faults.Bernoulli(rng.New(*seed), *p)
	h := g.CheckHealth(faults)
	fmt.Printf("%v with %d faults (p=%.2g):\n", params, faults.Count(), *p)
	fmt.Printf("  condition 1 (2b fault-free rows per brick):    ok=%v (violations: %d bricks)\n", h.Cond1OK, h.BricksNoFreeRun)
	fmt.Printf("  condition 2 (<= eps*b faults per brick):       ok=%v (max %d, threshold %d)\n", h.Cond2OK, h.MaxBrickFaults, h.Threshold)
	fmt.Printf("  condition 3 (fault-free frame around nodes):   ok=%v (violations: %d tiles)\n", h.Cond3OK, h.TilesUnenclosed)
	fmt.Printf("  healthy per Lemma 4: %v\n", h.Healthy())
	_, rep, err := g.PlaceBands(faults)
	if err != nil {
		fmt.Printf("  constructive placement: FAILS (%v)\n", err)
		return nil
	}
	fmt.Printf("  constructive placement: ok (%d boxes, %d segments, %d fillers)\n",
		rep.Boxes, rep.Segments, rep.Padded)
	return nil
}

// runSimulate reconfigures a faulty host and runs the torus workloads on
// the surviving machine.
func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	side := fs.Int("side", 200, "minimum torus side")
	faultsN := fs.Int("faults", 10, "random faults to inject")
	steps := fs.Int("steps", 30, "stencil steps")
	seed := fs.Uint64("seed", 1, "fault seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params, err := core.FitParams(2, *side, 0.5)
	if err != nil {
		return err
	}
	g, err := core.NewGraph(params)
	if err != nil {
		return err
	}
	faults := fault.NewSet(g.NumNodes())
	if err := faults.ExactRandom(rng.New(*seed), *faultsN); err != nil {
		return err
	}
	res, err := g.ContainTorus(faults, core.ExtractOptions{})
	if err != nil {
		return err
	}
	machine, err := parsim.New(res.Embedding, g, faults)
	if err != nil {
		return err
	}
	fmt.Printf("reconfigured %dx%d machine around %d faults\n", params.N(), params.N(), faults.Count())
	field := make([]float64, machine.P())
	field[0] = 1
	out, err := machine.Stencil(field, *steps, 0.8)
	if err != nil {
		return err
	}
	ideal, err := parsim.NewIdeal(machine.Shape).Stencil(field, *steps, 0.8)
	if err != nil {
		return err
	}
	fmt.Printf("stencil(%d): deviation from pristine machine = %v\n", *steps, parsim.MaxDiff(out, ideal))
	sum, redSteps, err := machine.AllReduceSum(field)
	if err != nil {
		return err
	}
	fmt.Printf("all-reduce: sum=%.6f in %d steps\n", sum, redSteps)
	return nil
}

// runEdges prints canonical host edges of the Theorem 2 host as a JSON
// array of {u, v} pairs — ready to paste into the daemon's /edge-faults
// request body, which only accepts real host edges. Anchors are spread
// across the host so the charged endpoints stay a tolerable pattern.
func runEdges(args []string) error {
	fs := flag.NewFlagSet("edges", flag.ExitOnError)
	d := fs.Int("d", 2, "dimension")
	side := fs.Int("side", 64, "minimum torus side")
	eps := fs.Float64("eps", 0.5, "maximum node redundancy")
	count := fs.Int("count", 2, "edges to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validate.Min("edges: -count", *count, 1); err != nil {
		return err
	}
	host, err := ftnet.NewRandomFaultTorus(*d, *side, *eps)
	if err != nil {
		return err
	}
	ses := host.NewSession()
	n := host.HostNodes()
	edges := make([][2]int, 0, *count)
	for i := 0; len(edges) < *count; i++ {
		// Stride anchors across the host; an anchor-column rotation is an
		// ordinary session commit, so no column needs avoiding.
		u := (i * 9001) % (n - 1)
		for v := u + 1; v < n; v++ {
			if ses.Adjacent(u, v) {
				edges = append(edges, [2]int{u, v})
				break
			}
		}
	}
	enc, err := json.Marshal(edges)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// runChurn runs lifetime trials of the dynamic fault process on the
// Theorem 2 host, re-embedding incrementally after every arrival,
// repair or burst.
func runChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	d := fs.Int("d", 2, "dimension")
	side := fs.Int("side", 200, "minimum torus side")
	eps := fs.Float64("eps", 0.5, "maximum node redundancy")
	arrival := fs.Float64("arrival", -1, "per-node failure rate (-1 = the theorem probability per unit time)")
	repair := fs.Float64("repair", 1, "per-fault repair rate (0 = pure aging)")
	burstRate := fs.Float64("burst-rate", 0, "adversarial burst rate (0 = off)")
	burstSize := fs.Int("burst-size", 8, "faults per adversarial burst")
	burstPattern := fs.String("burst-pattern", "cluster", "burst adversary: uniform|cluster|rowsweep|diagonal|classspread|columnsweep")
	edgeArrival := fs.Float64("edge-arrival", 0, "per-edge link-failure rate (0 = node faults only)")
	edgeRepair := fs.Float64("edge-repair", 1, "per-faulty-edge repair rate")
	edgeBurstRate := fs.Float64("edge-burst-rate", 0, "clustered edge-burst rate (0 = off)")
	edgeBurstSize := fs.Int("edge-burst-size", 8, "edges per clustered edge burst")
	horizon := fs.Float64("horizon", 20, "simulated time per trial")
	trials := fs.Int("trials", 16, "Monte-Carlo trials")
	workers := fs.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS); results do not depend on it")
	seed := fs.Uint64("seed", 1, "master seed")
	stopAtDeath := fs.Bool("stop-at-death", false, "end each trial at the first unembeddable state")
	batch := fs.Int("batch", 0, "evaluate the full pipeline once per this many events, deciding per-event status with the placement probe; bit-identical results (0 or 1 = per-event)")
	independent := fs.Bool("independent", false, "ablation: re-run the full pipeline from scratch after every event instead of the incremental session")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag validation shares internal/validate with the serve subcommand's
	// config: a negative or NaN rate, a zero horizon or a negative worker
	// count would otherwise flow straight into the Gillespie generator as
	// garbage. -arrival keeps its documented sentinel (exactly -1 = the
	// theorem probability).
	if *arrival != -1 {
		if err := validate.Rate("churn: -arrival", *arrival); err != nil {
			return err
		}
	}
	if err := validate.Rate("churn: -repair", *repair); err != nil {
		return err
	}
	if err := validate.Rate("churn: -burst-rate", *burstRate); err != nil {
		return err
	}
	if *burstRate > 0 {
		if err := validate.Min("churn: -burst-size", *burstSize, 1); err != nil {
			return err
		}
	}
	if err := validate.Rate("churn: -edge-arrival", *edgeArrival); err != nil {
		return err
	}
	if err := validate.Rate("churn: -edge-repair", *edgeRepair); err != nil {
		return err
	}
	if err := validate.Rate("churn: -edge-burst-rate", *edgeBurstRate); err != nil {
		return err
	}
	if *edgeBurstRate > 0 {
		if err := validate.Min("churn: -edge-burst-size", *edgeBurstSize, 1); err != nil {
			return err
		}
	}
	if err := validate.Positive("churn: -horizon", *horizon); err != nil {
		return err
	}
	if err := validate.Min("churn: -workers", *workers, 0); err != nil {
		return err
	}
	if err := validate.Min("churn: -trials", *trials, 1); err != nil {
		return err
	}
	if err := validate.Min("churn: -batch", *batch, 0); err != nil {
		return err
	}
	params, err := core.FitParams(*d, *side, *eps)
	if err != nil {
		return err
	}
	g, err := core.NewGraph(params)
	if err != nil {
		return err
	}
	pat, err := parsePattern(*burstPattern)
	if err != nil {
		return err
	}
	lambda := *arrival
	if lambda < 0 {
		lambda = params.TheoremFailureProb()
	}
	proc := churn.Process{
		Arrival:      lambda,
		Repair:       *repair,
		BurstRate:    *burstRate,
		BurstSize:    *burstSize,
		BurstPattern: pat,
	}
	if *edgeArrival > 0 || *edgeBurstRate > 0 {
		// Edge repair without an edge-fault source is a no-op rate; only
		// wire the edge kinds in when link flaps can actually occur.
		proc.EdgeArrival = *edgeArrival
		proc.EdgeRepair = *edgeRepair
		proc.EdgeBurstRate = *edgeBurstRate
		proc.EdgeBurstSize = *edgeBurstSize
	}
	fmt.Printf("B^%d_n: side %d, host nodes %d; lambda=%.2e/node, rho=%.2g/fault, bursts %.2g x %d (%s)\n",
		*d, params.N(), g.NumNodes(), lambda, *repair, *burstRate, *burstSize, pat)
	if proc.HasEdgeEvents() {
		fmt.Printf("  link flaps: lambda=%.2e/edge, rho=%.2g/fault, edge bursts %.2g x %d (clustered)\n",
			*edgeArrival, *edgeRepair, *edgeBurstRate, *edgeBurstSize)
	}
	res, err := churn.Simulate(g, proc, *trials, *seed, churn.Options{
		Workers:     *workers,
		Horizon:     *horizon,
		StopAtDeath: *stopAtDeath,
		Batch:       *batch,
		Independent: *independent,
	})
	if err != nil {
		return err
	}
	dt, dtSE := res.MeanDeathTime()
	avail, availSE := res.Availability()
	fmt.Printf("%d trials to horizon %.3g: %.0f events/trial\n", res.Trials, *horizon, res.Mean[churn.MetricEvents])
	fmt.Printf("  availability:      %.4f +- %.4f\n", avail, availSE)
	fmt.Printf("  death rate:        %.3f\n", res.DeathRate())
	if res.DeathRate() > 0 {
		fmt.Printf("  mean time to death:  %.3g +- %.2g (censored at horizon)\n", dt, dtSE)
		fmt.Printf("  mean faults at death: %.1f\n", res.MeanDeathFaults())
	}
	return nil
}

func runRandom(args []string) error {
	fs := flag.NewFlagSet("random", flag.ExitOnError)
	d := fs.Int("d", 2, "dimension")
	side := fs.Int("side", 400, "minimum torus side")
	eps := fs.Float64("eps", 0.5, "maximum node redundancy")
	p := fs.Float64("p", -1, "node failure probability (default: the theorem's log^-3d n)")
	seed := fs.Uint64("seed", 1, "fault seed")
	fig := fs.Bool("fig", false, "render the band figure around the first fault (d=2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	host, err := ftnet.NewRandomFaultTorus(*d, *side, *eps)
	if err != nil {
		return err
	}
	prob := *p
	if prob < 0 {
		prob = host.TheoremFailureProb()
	}
	fmt.Printf("B^%d_n: side %d, host nodes %d, degree %d, eps %.3f, theorem p %.2e\n",
		host.Dims(), host.Side(), host.HostNodes(), host.Degree(), host.Eps(), host.TheoremFailureProb())
	faults := host.InjectRandom(*seed, prob)
	fmt.Printf("injected %d random faults (p = %.2e); healthy per Lemma 4: %v\n",
		faults.Count(), prob, host.Healthy(faults))
	emb, err := host.Extract(faults)
	if err != nil {
		return err
	}
	fmt.Printf("extracted and verified a fault-free %d-dimensional %d-torus (%d nodes)\n",
		host.Dims(), host.Side(), len(emb.Map))
	if *fig && *d == 2 {
		return renderFigure(*side, *eps, *seed, prob)
	}
	return nil
}

// renderFigure redoes the run against the internal API to reach the band
// family, then prints the Figure 1 window.
func renderFigure(side int, eps float64, seed uint64, prob float64) error {
	params, err := core.FitParams(2, side, eps)
	if err != nil {
		return err
	}
	g, err := core.NewGraph(params)
	if err != nil {
		return err
	}
	faults := fault.NewSet(g.NumNodes())
	faults.Bernoulli(rng.New(seed), prob)
	res, err := g.ContainTorus(faults, core.ExtractOptions{})
	if err != nil {
		return err
	}
	rowLo, colLo := viz.FaultWindow(g, faults, 24, 72)
	pic, err := viz.Bands(g, res.Bands, faults, rowLo, colLo, 24, 72)
	if err != nil {
		return err
	}
	fmt.Println(viz.Legend)
	fmt.Print(pic)
	return nil
}

func runClique(args []string) error {
	fs := flag.NewFlagSet("clique", flag.ExitOnError)
	d := fs.Int("d", 2, "dimension")
	side := fs.Int("side", 400, "minimum torus side")
	p := fs.Float64("p", 0.1, "node failure probability")
	q := fs.Float64("q", 0, "edge failure probability")
	c := fs.Float64("c", 2.5, "node redundancy target (> 1/(1-p))")
	seed := fs.Uint64("seed", 1, "fault seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	host, err := ftnet.NewCliqueTorus(*d, *side, *p, *q, *c)
	if err != nil {
		return err
	}
	fmt.Printf("A^%d_n: side %d, host nodes %d, degree %d, supernode size %d, realized c %.2f\n",
		host.Dims(), host.Side(), host.HostNodes(), host.Degree(), host.SupernodeSize(), host.Redundancy())
	emb, err := host.ExtractRandom(*seed, *p)
	if err != nil {
		return err
	}
	fmt.Printf("survived p=%.2f q=%.2g: verified fault-free %d-torus (%d nodes)\n",
		*p, *q, host.Side(), len(emb.Map))
	return nil
}

func runWorstcase(args []string) error {
	fs := flag.NewFlagSet("worstcase", flag.ExitOnError)
	d := fs.Int("d", 2, "dimension")
	side := fs.Int("side", 100, "minimum torus side")
	k := fs.Int("k", 27, "worst-case fault budget")
	nFaults := fs.Int("faults", -1, "faults to inject (default: full capacity)")
	pattern := fs.String("pattern", "cluster", "adversary: uniform|cluster|rowsweep|diagonal|classspread|columnsweep")
	seed := fs.Uint64("seed", 1, "fault seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	host, err := ftnet.NewWorstCaseTorus(*d, *side, *k)
	if err != nil {
		return err
	}
	fmt.Printf("D^%d_{n,k}: side %d, host nodes %d, degree %d, capacity %d\n",
		host.Dims(), host.Side(), host.HostNodes(), host.Degree(), host.Capacity())
	count := *nFaults
	if count < 0 {
		count = host.Capacity()
	}
	pat, err := parsePattern(*pattern)
	if err != nil {
		return err
	}
	// Build the adversarial set against the internal host shape.
	wg, err := worstcase.NewGraph(worstcase.Params{D: *d, N: *side, K: *k})
	if err != nil {
		return err
	}
	set, err := fault.Adversarial(pat, wg.Shape, count, wg.P.B()+1, rng.New(*seed))
	if err != nil {
		return err
	}
	faults := host.NewFaults()
	for _, v := range set.Slice() {
		faults.Add(v)
	}
	emb, err := host.Extract(faults, nil)
	if err != nil {
		return err
	}
	fmt.Printf("tolerated %d %s faults: verified fault-free %d-torus (%d nodes)\n",
		count, pat, host.Side(), len(emb.Map))
	return nil
}

func parsePattern(s string) (fault.Pattern, error) {
	for _, p := range fault.AllPatterns() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fterr.New(fterr.Invalid, "ftnet", "unknown pattern %q", s)
}
