// Package graphutil provides the graph algorithms the compiler stack is
// built on: a compact undirected graph, the degree-ordered greedy coloring
// of Algorithm 1 of the paper (used by the Sec. 4 stage scheduler), the
// iterated maximal-independent-set extraction used by the Enola baseline
// (Sec. 3), and the random-graph generators behind the QAOA workloads
// (Sec. 7.1).
package graphutil

import (
	"fmt"
	"sort"

	"powermove/internal/bitset"
)

// Graph is an undirected graph on vertices 0..N-1 with an adjacency-list
// representation plus per-vertex adjacency bitsets, so HasEdge is a
// shift-and-mask instead of a map probe. Rows are allocated lazily on a
// vertex's first edge, keeping isolated vertices free. Parallel edges are
// collapsed; self-loops are rejected.
type Graph struct {
	n   int
	adj [][]int
	set []bitset.Set
}

// NewGraph returns an empty graph on n vertices.
// It panics if n is negative.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative vertex count %d", n))
	}
	return &Graph{
		n:   n,
		adj: make([][]int, n),
		set: make([]bitset.Set, n),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// row returns vertex v's adjacency bitset, sizing it on first use.
func (g *Graph) row(v int) *bitset.Set {
	s := &g.set[v]
	if s.Len() == 0 {
		s.Reset(g.n)
	}
	return s
}

// AddEdge inserts the undirected edge {u, v}, ignoring duplicates.
// It panics on self-loops or out-of-range vertices.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graphutil: self-loop on vertex %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphutil: edge (%d, %d) out of range for %d vertices", u, v, g.n))
	}
	ru := g.row(u)
	if ru.Contains(v) {
		return
	}
	ru.Add(v)
	g.row(v).Add(u)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if g.set[u].Len() == 0 {
		return false
	}
	return g.set[u].Contains(v)
}

// Adjacent returns the neighbors of v. The returned slice is owned by the
// graph and must not be mutated.
func (g *Graph) Adjacent(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// EdgeCount returns the number of distinct edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Edges returns every edge once, as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// GreedyColoring implements Algorithm 1 of the paper ("optimized
// edge-coloring"): vertices are processed in descending degree order and
// each receives the smallest color not used by an already-colored neighbor.
// The returned slice maps vertex -> color; colors are 0-based and at most
// MaxDegree()+1 distinct colors are used.
func (g *Graph) GreedyColoring() []int {
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(g.adj[order[i]]) > len(g.adj[order[j]])
	})

	color := make([]int, g.n)
	for i := range color {
		color[i] = -1
	}
	available := make([]bool, g.n+1)
	for _, v := range order {
		for i := range available {
			available[i] = true
		}
		for _, u := range g.adj[v] {
			if color[u] >= 0 {
				available[color[u]] = false
			}
		}
		for c := range available {
			if available[c] {
				color[v] = c
				break
			}
		}
	}
	return color
}

// ColorClasses groups vertices by color, dropping any vertex colored -1.
// Classes are ordered by color index; vertices within a class keep their
// natural order.
func ColorClasses(color []int) [][]int {
	max := -1
	for _, c := range color {
		if c > max {
			max = c
		}
	}
	classes := make([][]int, max+1)
	for v, c := range color {
		if c >= 0 {
			classes[c] = append(classes[c], v)
		}
	}
	return classes
}

// ValidColoring reports whether color assigns every vertex a non-negative
// color distinct from all of its neighbors' colors.
func (g *Graph) ValidColoring(color []int) bool {
	if len(color) != g.n {
		return false
	}
	for v := 0; v < g.n; v++ {
		if color[v] < 0 {
			return false
		}
		for _, u := range g.adj[v] {
			if color[u] == color[v] {
				return false
			}
		}
	}
	return true
}

// MaximalIndependentSet returns a maximal independent set of the subgraph
// induced by the still-unmarked vertices (removed[v] == false), using the
// classic min-residual-degree greedy rule. The Enola baseline seeds each
// of its Rydberg-stage extractions with this set and then tries
// randomized restarts; the restarts, not this greedy, dominate its
// compile time.
func (g *Graph) MaximalIndependentSet(removed []bool) []int {
	if len(removed) != g.n {
		panic(fmt.Sprintf("graphutil: removed mask has length %d, want %d", len(removed), g.n))
	}
	blocked := make([]bool, g.n)
	residual := make([]int, g.n)
	active := 0
	for v := 0; v < g.n; v++ {
		if removed[v] {
			blocked[v] = true
			continue
		}
		active++
		for _, u := range g.adj[v] {
			if !removed[u] {
				residual[v]++
			}
		}
	}
	var mis []int
	for picked := 0; picked < active; {
		best, bestDeg := -1, g.n+1
		for v := 0; v < g.n; v++ {
			if !blocked[v] && residual[v] < bestDeg {
				best, bestDeg = v, residual[v]
			}
		}
		if best < 0 {
			break
		}
		mis = append(mis, best)
		blocked[best] = true
		picked++
		for _, u := range g.adj[best] {
			if !blocked[u] {
				blocked[u] = true
				picked++
				for _, w := range g.adj[u] {
					residual[w]--
				}
			}
		}
	}
	sort.Ints(mis)
	return mis
}

// IsIndependent reports whether no two vertices of set share an edge.
func (g *Graph) IsIndependent(set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.adj[v] {
			if in[u] {
				return false
			}
		}
	}
	return true
}
