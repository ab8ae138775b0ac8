// Package baseline implements the two comparator constructions the paper
// measures itself against in the introduction:
//
//   - ClusterTorus: an O(log N)-degree random-fault-tolerant torus in the
//     style of Fraigniaud, Kenyon and Pelc [FKP93] — every torus node
//     becomes a cluster of Theta(log n) nodes, with complete intra- and
//     inter-cluster wiring. Theorem 1's contribution is achieving the same
//     goal with degree O(log log N); experiment E6 compares the degree
//     each needs for a target survival rate.
//
//   - SpareGrid: a bounded-degree worst-case-tolerant mesh in the spirit of
//     Bruck, Cypher and Ho [BCH93b]: a mesh with s spare rows and columns
//     and bypass links of reach L (degree 4L). Faulty rows/columns are
//     discarded wholesale; tolerance degrades when faults cluster more
//     than the bypass reach, which is exactly the trade-off the intro's
//     comparison (O(n^{2/3}) vs our O(n^{3/4}) faults) reflects. The BCH
//     construction proper is a full paper of its own, so SpareGrid stands
//     in for it, and AnalyticBCH reports the analytic BCH numbers next to
//     the measured SpareGrid ones.
package baseline

import (
	"fmt"

	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/grid"
	"ftnet/internal/torus"
)

// ClusterTorus replaces every node of the d-dimensional n-torus with a
// clique of G nodes and joins adjacent clusters completely.
type ClusterTorus struct {
	D, N, G int
	Shape   grid.Shape // torus of clusters
}

// NewClusterTorus validates and builds the host description.
func NewClusterTorus(d, n, g int) (*ClusterTorus, error) {
	if d < 1 || n < 3 || g < 1 {
		return nil, fmt.Errorf("baseline: invalid cluster torus d=%d n=%d g=%d", d, n, g)
	}
	return &ClusterTorus{D: d, N: n, G: g, Shape: grid.Uniform(d, n)}, nil
}

// NumNodes returns g * n^d.
func (c *ClusterTorus) NumNodes() int { return c.G * c.Shape.Size() }

// Degree returns (g-1) + 2d*g.
func (c *ClusterTorus) Degree() int { return c.G - 1 + 2*c.D*c.G }

// Cluster returns the cluster id of host node v.
func (c *ClusterTorus) Cluster(v int) int { return v / c.G }

// Adjacent reports host adjacency.
func (c *ClusterTorus) Adjacent(u, v int) bool {
	if u == v {
		return false
	}
	cu, cv := c.Cluster(u), c.Cluster(v)
	if cu == cv {
		return true
	}
	// Torus adjacency of clusters.
	a := c.Shape.Coord(cu, nil)
	b := c.Shape.Coord(cv, nil)
	diff := -1
	for i := range a {
		if a[i] != b[i] {
			if diff >= 0 {
				return false
			}
			diff = i
		}
	}
	if diff < 0 {
		return false
	}
	return grid.Dist(a[diff], b[diff], c.Shape[diff]) == 1
}

// Embed picks one usable node per cluster greedily (same incremental rule
// as Theorem 1's mapping f) and verifies the result. edges may be nil for
// reliable links. A cluster with no usable node is an fterr.NotTolerated
// error; any other error is a bug.
func (c *ClusterTorus) Embed(nodeFaults *fault.Set, edges *fault.Oracle) (*embed.Embedding, error) {
	guest, err := torus.NewUniform(torus.TorusKind, c.D, c.N)
	if err != nil {
		return nil, err
	}
	e := embed.New(guest)
	gc := make([]int, c.D)
	constraints := make([]int, 0, 2*c.D)
	for gi := 0; gi < guest.N(); gi++ {
		guest.Shape.Coord(gi, gc)
		cluster := c.Shape.Index(gc)
		constraints = constraints[:0]
		for j, x := range gc {
			orig := gc[j]
			gc[j] = grid.Sub(x, 1, c.Shape[j])
			if lower := guest.Shape.Index(gc); lower < gi {
				constraints = append(constraints, e.Map[lower])
			}
			gc[j] = grid.Add(x, 1, c.Shape[j])
			if upper := guest.Shape.Index(gc); upper < gi {
				constraints = append(constraints, e.Map[upper])
			}
			gc[j] = orig
		}
		chosen := -1
		for slot := 0; slot < c.G; slot++ {
			v := cluster*c.G + slot
			if nodeFaults.Has(v) {
				continue
			}
			ok := true
			if edges != nil {
				for _, u := range constraints {
					if edges.EdgeFaulty(v, u) {
						ok = false
						break
					}
				}
			}
			if ok {
				chosen = v
				break
			}
		}
		if chosen < 0 {
			return nil, fterr.New(fterr.NotTolerated, "baseline", "cluster %d has no usable node", cluster)
		}
		e.Map[gi] = chosen
	}
	var edgeFaulty func(u, v int) bool
	if edges != nil {
		edgeFaulty = edges.EdgeFaulty
	}
	if err := e.Verify(c, nodeFaults, edgeFaulty); err != nil {
		return nil, err
	}
	return e, nil
}
