package experiments

import (
	"fmt"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// runA3 sweeps the supernode size h at fixed p and shows the sharp
// Chernoff knee in survival probability that Theorem 1's h = Theta(k^2)
// choice sits above.
func runA3(cfg Config) error {
	const pNode = 0.25
	trials := cfg.trials(8, 30)
	hs := []int{4, 5, 6, 8, 10, 12, 16, 20}
	if cfg.Quick {
		hs = []int{4, 6, 10, 16}
	}
	t := stats.NewTable(cfg.Out, "h", "degree", "trials", "survived", "rate")
	for _, h := range hs {
		g, err := e5Graph(0, h)
		if err != nil {
			return err
		}
		res, err := cfg.monteCarlo(trials, cfg.cellSeed("A", uint64(h)), nil,
			func(trial int, stream *rng.PCG, _ any) (stats.Outcome, error) {
				fs := g.NewFaultState(stream.Uint64(), pNode, stream)
				_, _, err := g.Embed(fs)
				return stats.Classify(err)
			})
		if err != nil {
			return err
		}
		t.Row(h, g.P.Degree(), res.Trials, res.Successes, fmt.Sprintf("%.2f", res.Rate))
	}
	fmt.Fprintf(cfg.Out, "p=%.2f, k=2 (k^2=4 nodes needed per supernode)\n", pNode)
	return t.Flush()
}
