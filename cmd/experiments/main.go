// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-workers N] [-ci W] [-independent] [-list] [-run E1,E7,...|all]
//
// Each experiment prints the claim it reproduces followed by the measured
// table. Monte-Carlo sweeps run on the deterministic parallel engine
// (internal/parallel): for a fixed -seed the tables are bit-identical for
// every -workers value.
// -ci sets an early-stopping target (95% Wilson interval width); with the
// coupled curve engine (internal/sweep) each rung of a rate ladder stops
// on its own. -independent disables the nested coupling for ablation:
// every rung and threshold probe then draws fresh samples, as the suite
// did before the sweep engine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ftnet/internal/experiments"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "smaller sweeps and trial counts")
		seed    = flag.Uint64("seed", 20250611, "master seed for all Monte-Carlo trials")
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = GOMAXPROCS); results do not depend on it")
		ci      = flag.Float64("ci", 0, "early-stop once the 95% CI is narrower than this width (0 = run all trials)")
		dense   = flag.Bool("dense", false, "force the dense whole-host Theorem 2 pipeline (the oracle of the footprint-local delta engine)")
		indep   = flag.Bool("independent", false, "disable rate-ladder coupling: every sweep rung and threshold probe draws fresh independent samples (ablation)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return
	}

	cfg := experiments.Config{Out: os.Stdout, Quick: *quick, Seed: *seed, Parallel: *workers,
		TargetCI: *ci, Dense: *dense, Independent: *indep}
	ids := strings.Split(*run, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	if err := experiments.Run(cfg, ids...); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
