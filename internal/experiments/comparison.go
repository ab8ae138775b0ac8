package experiments

import (
	"fmt"
	"math"

	"ftnet/internal/baseline"
	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
	"ftnet/internal/sweep"
	"ftnet/internal/worstcase"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "worst-case faults at linear redundancy: D^2 vs BCH93b vs spare grid",
		PaperClaim: "intro: with O(n^2) nodes, D^2 tolerates O(n^{3/4}) worst-case faults " +
			"while BCH93b tolerates only O(n^{2/3}); BCH wins for small k (n^2 + O(k^3) nodes, degree 13)",
		Run: runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "random faults tolerated: B^2_n vs best prior constant-degree construction",
		PaperClaim: "Section 1: B^d_n tolerates Theta(N/log^{3d} N) random faults vs " +
			"Theta(N^{1/3}) for BCH93b (two-dimensional case)",
		Run: runE10,
	})
}

func runE9(cfg Config) error {
	sides := []int{100, 200, 400, 800}
	if cfg.Quick {
		sides = []int{100, 300}
	}
	t := stats.NewTable(cfg.Out, "n", "ours k=n^{3/4}", "ours nodes", "ours ok",
		"BCH k=n^{2/3} (analytic)", "BCH nodes (analytic)", "spare-grid k (clustered attack)")
	r := rng.New(cfg.cellSeed("E9"))
	for _, n := range sides {
		kOurs := int(math.Pow(float64(n), 0.75))
		g, err := worstcase.NewGraph(worstcase.Params{D: 2, N: n, K: kOurs})
		if err != nil {
			return err
		}
		// Exercise the guarantee at full budget on the nastiest patterns.
		ok := true
		for i, pat := range []fault.Pattern{fault.Cluster, fault.ClassSpread, fault.RowSweep} {
			faults, err := adversarial(pat, g, g.P.Capacity(), r.Split(uint64(n*10+i)))
			if err != nil {
				return err
			}
			if _, _, err := g.Tolerate(faults, nil); err != nil {
				ok = false
				break
			}
		}
		kBCH := int(math.Pow(float64(n), 2.0/3.0))
		_, bchNodes := baseline.AnalyticBCH(n, kBCH)
		// Spare grid with linear redundancy (s = n/4 spares, reach 3):
		// a clustered attack kills it at L = reach faults in adjacent rows.
		sg, err := baseline.NewSpareGrid(n, n/4, 3)
		if err != nil {
			return err
		}
		sgTolerated := clusteredTolerance(sg)
		t.Row(g.P.Side(), g.P.Capacity(), g.P.NumNodes(), ok, kBCH, bchNodes, sgTolerated)
	}
	fmt.Fprintln(cfg.Out, "spare-grid column: largest run of adjacent faulty rows survived (bypass reach - 1);")
	fmt.Fprintln(cfg.Out, "shows why naive sparing cannot trade redundancy for worst-case tolerance the way D^2 does.")
	return t.Flush()
}

// clusteredTolerance finds the largest c such that c adjacent faulty rows
// are still recoverable by the spare grid.
func clusteredTolerance(sg *baseline.SpareGrid) int {
	for c := 1; ; c++ {
		faults := fault.NewSet(sg.NumNodes())
		for i := 0; i < c; i++ {
			faults.Add((10 + i) * sg.Side())
		}
		if _, err := sg.Recover(faults); err != nil {
			return c - 1
		}
		if c > sg.S {
			return sg.S
		}
	}
}

func runE10(cfg Config) error {
	p := core.Params{D: 2, W: 6, Pitch: 18, Scale: 1} // n=432, N=280k nodes
	if !cfg.Quick {
		p = core.Params{D: 2, W: 8, Pitch: 32, Scale: 1} // n=1536, N=3.1M nodes
	}
	g, err := core.NewGraph(p)
	if err != nil {
		return err
	}
	trials := cfg.trials(20, 40)
	bigN := float64(g.NumNodes())
	theoryOurs := bigN / math.Pow(math.Log2(float64(p.N())), 6)
	theoryBCH := math.Pow(bigN, 1.0/3.0)

	// Find the largest fault count with >= 95% survival by doubling then
	// bisecting on the fault count. Probes couple the counts: each trial
	// owns one random injection order and F(k) is its k-prefix, so the
	// measured rate is monotone in k on the shared trial set.
	probes, err := sweep.NewProbes(g, trials, cfg.cellSeed("E10"), p.TheoremFailureProb(), cfg.sweepConfig())
	if err != nil {
		return err
	}
	rate := func(k int) (float64, error) {
		res, err := probes.Count(k)
		if err != nil {
			return 0, err
		}
		return res.Rate, nil
	}
	lo, hi := 1, 2
	for {
		r, err := rate(hi)
		if err != nil {
			return err
		}
		if r < 0.95 || hi > g.NumNodes()/4 {
			break
		}
		lo = hi
		hi *= 2
	}
	for hi-lo > max(1, lo/8) {
		mid := (lo + hi) / 2
		r, err := rate(mid)
		if err != nil {
			return err
		}
		if r >= 0.95 {
			lo = mid
		} else {
			hi = mid
		}
	}

	// The asymptotic claim Theta(N/log^6 N) >> Theta(N^{1/3}) only bites
	// past the crossover N* with N*^{2/3} = log^6 N*; compute it so the
	// table makes the scale regime explicit.
	crossover := 1.0
	for i := 0; i < 200; i++ {
		crossover = math.Pow(math.Pow(math.Log2(crossover+2), 6), 1.5)
	}

	t := stats.NewTable(cfg.Out, "quantity", "value")
	t.Row("host nodes N", g.NumNodes())
	t.Row("measured max faults @95% survival", lo)
	t.Row("theory ours: N/log^6 N", fmt.Sprintf("%.1f", theoryOurs))
	t.Row("theory BCH93b: N^(1/3)", fmt.Sprintf("%.0f", theoryBCH))
	t.Row("asymptotic crossover N*", fmt.Sprintf("%.1e", crossover))
	if err := t.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "shape check: below N* ~ %.0e the BCH curve is higher, as measured here; ours dominates its\n"+
		"own theory curve (%d >= %.1f) and grows with N while N^{1/3} stays cube-root.\n",
		crossover, lo, theoryOurs)
	if float64(lo) < theoryOurs {
		return fmt.Errorf("E10: measured tolerance %d below our own theory curve %.1f", lo, theoryOurs)
	}
	return nil
}
