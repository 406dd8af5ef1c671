// Random-graph generators for the QAOA workloads of Sec. 7.1: random
// d-regular graphs (QAOA-regular3 / QAOA-regular4) and Erdos-Renyi
// G(n, p) graphs (QAOA-random). All generators are deterministic given
// the supplied rand source.
package graphutil

import (
	"fmt"
	"math/rand"
)

// CheckRegular reports whether a simple d-regular graph on n vertices
// exists: it does iff 0 <= d < n and n*d is even.
func CheckRegular(n, d int) error {
	switch {
	case d < 0:
		return fmt.Errorf("negative degree %d", d)
	case d >= n:
		return fmt.Errorf("no %d-regular graph on %d vertices (degree must be below the vertex count)", d, n)
	case n*d%2 != 0:
		return fmt.Errorf("no %d-regular graph on %d vertices (odd degree sum)", d, n)
	}
	return nil
}

// RandomRegular returns a simple d-regular graph on n vertices sampled with
// the configuration (pairing) model, retrying until the pairing yields no
// self-loops or parallel edges. It panics if CheckRegular(n, d) fails.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if err := CheckRegular(n, d); err != nil {
		panic("graphutil: " + err.Error())
	}
	for attempt := 0; ; attempt++ {
		if g, ok := tryPairing(n, d, rng); ok {
			return g
		}
		if attempt > 10000 {
			// The pairing model succeeds with probability bounded
			// away from zero for fixed d, so this is unreachable
			// for the degrees this repository uses (3 and 4).
			panic(fmt.Sprintf("graphutil: pairing model failed for n=%d d=%d", n, d))
		}
	}
}

// tryPairing attempts one round of the configuration model: each vertex
// contributes d stubs, the stubs are shuffled, and consecutive stubs are
// matched. The attempt fails if it would create a loop or multi-edge.
func tryPairing(n, d int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := NewGraph(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil, false
		}
		g.AddEdge(u, v)
	}
	return g, true
}

// RandomGNP returns an Erdos-Renyi G(n, p) graph: each of the n*(n-1)/2
// possible edges is present independently with probability p.
func RandomGNP(n int, p float64, rng *rand.Rand) *Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graphutil: probability %v out of [0, 1]", p))
	}
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// IsRegular reports whether every vertex of g has degree d.
func (g *Graph) IsRegular(d int) bool {
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) != d {
			return false
		}
	}
	return true
}
