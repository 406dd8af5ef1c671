package graphutil

import (
	"math/rand"
	"testing"
)

func TestRandomRegularIsSimpleAndRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, d int }{
		{10, 3}, {30, 3}, {100, 3}, {20, 4}, {50, 4}, {6, 5}, {8, 0},
	} {
		g := RandomRegular(tc.n, tc.d, rng)
		if !g.IsRegular(tc.d) {
			t.Errorf("n=%d d=%d: graph not %d-regular", tc.n, tc.d, tc.d)
		}
		if g.EdgeCount() != tc.n*tc.d/2 {
			t.Errorf("n=%d d=%d: %d edges, want %d", tc.n, tc.d, g.EdgeCount(), tc.n*tc.d/2)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a := RandomRegular(30, 3, rand.New(rand.NewSource(9)))
	b := RandomRegular(30, 3, rand.New(rand.NewSource(9)))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestRandomRegularPanics(t *testing.T) {
	cases := []struct {
		name string
		n, d int
	}{
		{"odd degree sum", 5, 3},
		{"degree too large", 4, 4},
		{"negative degree", 4, -2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("RandomRegular(%d, %d) did not panic", tc.n, tc.d)
				}
			}()
			RandomRegular(tc.n, tc.d, rand.New(rand.NewSource(1)))
		})
	}
}

func TestRandomGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	empty := RandomGNP(10, 0, rng)
	if empty.EdgeCount() != 0 {
		t.Errorf("G(10, 0) has %d edges", empty.EdgeCount())
	}
	full := RandomGNP(10, 1, rng)
	if full.EdgeCount() != 45 {
		t.Errorf("G(10, 1) has %d edges, want 45", full.EdgeCount())
	}
}

func TestRandomGNPDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomGNP(60, 0.5, rng)
	max := 60 * 59 / 2
	// Loose 4-sigma band around the mean p*max.
	got := float64(g.EdgeCount())
	mean := 0.5 * float64(max)
	if got < mean-120 || got > mean+120 {
		t.Errorf("G(60, 0.5) has %v edges, far from mean %v", got, mean)
	}
}

func TestRandomGNPPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RandomGNP(p=%v) did not panic", p)
				}
			}()
			RandomGNP(5, p, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestIsRegular(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	if g.IsRegular(1) {
		t.Error("path3 prefix reported 1-regular despite isolated vertex")
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if !g.IsRegular(2) {
		t.Error("triangle not reported 2-regular")
	}
}

// TestCheckRegular: CheckRegular accepts exactly the sizes that admit a
// simple d-regular graph, so RandomRegular never panics on a size it
// accepts.
func TestCheckRegular(t *testing.T) {
	cases := []struct {
		n, d int
		ok   bool
	}{
		{5, 3, false}, {7, 3, false}, {3, 4, false}, {4, 4, false}, {4, -2, false},
		{2, 1, true}, {4, 3, true}, {6, 3, true}, {5, 4, true}, {9, 4, true}, {3, 0, true},
	}
	for _, tc := range cases {
		err := CheckRegular(tc.n, tc.d)
		if (err == nil) != tc.ok {
			t.Errorf("CheckRegular(%d, %d) = %v, want ok=%v", tc.n, tc.d, err, tc.ok)
		}
		if tc.ok {
			if g := RandomRegular(tc.n, tc.d, rand.New(rand.NewSource(1))); !g.IsRegular(tc.d) {
				t.Errorf("RandomRegular(%d, %d) not regular", tc.n, tc.d)
			}
		}
	}
}
