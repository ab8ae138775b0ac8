package experiments

import (
	"ftnet/internal/fault"
	"ftnet/internal/rng"
	"ftnet/internal/worstcase"
)

// adversarial places k faults on a worst-case host with the pattern's
// class modulus tuned to attack the first pigeonhole stage.
func adversarial(p fault.Pattern, g *worstcase.Graph, k int, r rng.Source) (*fault.Set, error) {
	return fault.Adversarial(p, g.Shape, k, g.P.B()+1, r)
}
