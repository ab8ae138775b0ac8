package experiments

import (
	"fmt"
	"math"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
	"ftnet/internal/supernode"
	"ftnet/internal/worstcase"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "B^d_n resource bounds",
		PaperClaim: "Theorem 2: B^d_n has at most (1+eps)n^d nodes and degree exactly 6d-2, " +
			"tolerating node-failure probability log^-3d(n)",
		Run: runE1,
	})
	register(Experiment{
		ID:    "E4",
		Title: "A^d_n resource bounds",
		PaperClaim: "Theorem 1: A^d_n has at most c*n^d nodes and degree O(log log n) " +
			"for any c > 1/(1-p)",
		Run: runE4,
	})
}

func runE1(cfg Config) error {
	sides := []int{200, 500, 1500, 4000}
	dims := []int{2, 3}
	if cfg.Quick {
		sides = []int{200, 1500}
		dims = []int{2}
	}
	t := stats.NewTable(cfg.Out, "d", "n", "m", "b", "eps", "nodes", "(1+eps)n^d", "degree", "6d-2")
	for _, d := range dims {
		for _, side := range sides {
			p, err := core.FitParams(d, side, 0.5)
			if err != nil {
				return err
			}
			g, err := core.NewGraph(p)
			if err != nil {
				return err
			}
			bound := float64(p.NumNodes())
			wantBound := (1 + p.Eps()) * math.Pow(float64(p.N()), float64(d))
			// Measure the degree on a node sample.
			r := rng.New(cfg.cellSeed("E1"))
			deg := -1
			for i := 0; i < 20; i++ {
				l := len(g.Neighbors(r.Intn(g.NumNodes()), nil))
				if deg >= 0 && l != deg {
					return fmt.Errorf("E1: non-uniform degree %d vs %d", l, deg)
				}
				deg = l
			}
			if bound > wantBound+0.5 {
				return fmt.Errorf("E1: node bound violated: %v > %v", bound, wantBound)
			}
			t.Row(d, p.N(), p.M(), p.W, fmt.Sprintf("%.3f", p.Eps()),
				p.NumNodes(), int(wantBound), deg, 6*d-2)
		}
	}
	return t.Flush()
}

func runE4(cfg Config) error {
	sides := []int{200, 400, 800, 1600}
	if cfg.Quick {
		sides = []int{200, 800}
	}
	const (
		pNode = 0.1
		q     = 1e-6
		c     = 2.0
	)
	t := stats.NewTable(cfg.Out, "n", "k", "h", "nodes", "c*n^2", "degree", "log2(n)", "log2log2(n)")
	seen := map[int]bool{}
	for _, side := range sides {
		p, err := supernode.FitParams(2, side, pNode, q, c)
		if err != nil {
			return err
		}
		n := p.Side()
		if seen[n] {
			continue // distinct requested sides can round to the same instance
		}
		seen[n] = true
		t.Row(n, p.K, p.H, p.NumNodes(), int(p.C()*float64(n)*float64(n)),
			p.Degree(),
			fmt.Sprintf("%.1f", math.Log2(float64(n))),
			fmt.Sprintf("%.2f", math.Log2(math.Log2(float64(n)))))
	}
	fmt.Fprintln(cfg.Out, "note: degree tracks h = Theta(k^2) = Theta(log log n), versus Theta(log n) for FKP-style hosts (see E6)")
	return t.Flush()
}

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "D^2_{n,k} worst-case tolerance across adversaries",
		PaperClaim: "Theorem 13: degree 8, (n+k^{4/3})^2 nodes, and ANY k node+edge faults " +
			"leave a fault-free n x n torus",
		Run: runE7,
	})
	register(Experiment{
		ID:         "E8",
		Title:      "D^d_{n,k} pigeonhole cascade across dimensions",
		PaperClaim: "Theorem 3: dimension i receives at most k_i = b^{2^d-2^{i-1}} faults and passes at most k_{i+1} on",
		Run:        runE8,
	})
}

func runE7(cfg Config) error {
	type row struct{ n, k int }
	rows := []row{{60, 8}, {100, 27}, {200, 64}, {400, 125}}
	if cfg.Quick {
		rows = []row{{60, 8}, {100, 27}}
	}
	t := stats.NewTable(cfg.Out, "n", "k", "b", "m", "nodes", "degree", "patterns", "tolerated")
	r := rng.New(cfg.cellSeed("E7"))
	for _, rw := range rows {
		g, err := worstcase.NewGraph(worstcase.Params{D: 2, N: rw.n, K: rw.k})
		if err != nil {
			return err
		}
		pats := 0
		ok := 0
		for _, pat := range fault.AllPatterns() {
			faults, err := adversarial(pat, g, g.P.Capacity(), r.Split(uint64(pats)))
			if err != nil {
				return err
			}
			pats++
			if _, _, err := g.Tolerate(faults, nil); err == nil {
				ok++
			}
		}
		if ok != pats {
			return fmt.Errorf("E7: n=%d k=%d tolerated only %d/%d adversaries (Theorem 13 violated)", rw.n, rw.k, ok, pats)
		}
		t.Row(g.P.Side(), g.P.Capacity(), g.P.B(), g.P.M(), g.P.NumNodes(), g.P.Degree(),
			pats, fmt.Sprintf("%d/%d", ok, pats))
	}
	return t.Flush()
}

func runE8(cfg Config) error {
	dims := []int{1, 2, 3}
	if cfg.Quick {
		dims = []int{1, 2}
	}
	t := stats.NewTable(cfg.Out, "d", "b", "n", "m", "dim", "k_i (bound)", "received", "bands used")
	r := rng.New(cfg.cellSeed("E8"))
	for _, d := range dims {
		k := []int{16, 27, 128}[d-1]
		nReq := []int{300, 100, 16}[d-1]
		g, err := worstcase.NewGraph(worstcase.Params{D: d, N: nReq, K: k})
		if err != nil {
			return err
		}
		faults, err := adversarial(0, g, g.P.Capacity(), r.Split(uint64(d)))
		if err != nil {
			return err
		}
		mk, err := g.Mask(faults)
		if err != nil {
			return err
		}
		b := g.P.B()
		for dim := 0; dim < d; dim++ {
			// k_i = b^{2^d - 2^{i-1}} with 1-indexed i.
			bound := ipow(b, (1<<uint(d))-(1<<uint(dim)))
			if mk.Passed[dim] > bound {
				return fmt.Errorf("E8: d=%d dim %d received %d > bound %d", d, dim, mk.Passed[dim], bound)
			}
			t.Row(d, b, g.P.Side(), g.P.M(), dim, bound, mk.Passed[dim], len(mk.Bottoms[dim]))
		}
	}
	return t.Flush()
}

func ipow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
