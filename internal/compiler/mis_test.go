package compiler

// Differential tests for the Enola restart loop: misStages must return
// the same stages, and leave the RNG in the same state, as the
// neighbour-scanning loop it replaced. That loop is kept verbatim below.

import (
	"math/rand"
	"reflect"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/graphutil"
	"powermove/internal/stage"
)

// legacyMISStages is the previous misStages, verbatim.
func legacyMISStages(gates []circuit.CZ, restarts int, rng *rand.Rand) []stage.Stage {
	if len(gates) == 0 {
		return nil
	}
	g := stage.ConflictGraph(gates)
	removed := make([]bool, len(gates))
	remaining := len(gates)
	var stages []stage.Stage
	for remaining > 0 {
		best := g.MaximalIndependentSet(removed)
		for r := 0; r < restarts; r++ {
			if cand := legacyRandomMIS(g, removed, rng); len(cand) > len(best) {
				best = cand
			}
		}
		st := stage.Stage{Gates: make([]circuit.CZ, 0, len(best))}
		for _, gi := range best {
			st.Gates = append(st.Gates, gates[gi])
			removed[gi] = true
		}
		remaining -= len(best)
		stages = append(stages, st)
	}
	return stages
}

// legacyRandomMIS is the previous randomMIS, verbatim.
func legacyRandomMIS(g *graphutil.Graph, removed []bool, rng *rand.Rand) []int {
	order := rng.Perm(g.N())
	taken := make([]bool, g.N())
	var mis []int
	for _, v := range order {
		if removed[v] {
			continue
		}
		ok := true
		for _, u := range g.Adjacent(v) {
			if taken[u] {
				ok = false
				break
			}
		}
		if ok {
			taken[v] = true
			mis = append(mis, v)
		}
	}
	return mis
}

// randomGates draws a block on n qubits: each pair is a gate with
// probability p, in random order, and with dup set some gates repeat.
func randomGates(rng *rand.Rand, n int, p float64, dup bool) []circuit.CZ {
	var gates []circuit.CZ
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				gates = append(gates, circuit.NewCZ(a, b))
			}
		}
	}
	rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	if dup && len(gates) > 0 {
		for k := rng.Intn(len(gates)); k >= 0; k-- {
			gates = append(gates, gates[rng.Intn(len(gates))])
		}
	}
	return gates
}

// TestMISStagesMatchLegacy: over random dense and sparse blocks and
// restart counts from zero upward, the occupancy-based loop returns
// the legacy stages and consumes the same RNG draws.
func TestMISStagesMatchLegacy(t *testing.T) {
	gen := rand.New(rand.NewSource(20251017))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		// Sparse blocks span 2-60 qubits at mean degree 1-6; dense ones
		// keep to 2-24 qubits so the legacy loop stays cheap.
		n := 2 + gen.Intn(59)
		p := (1 + 5*gen.Float64()) / float64(n)
		if trial%3 == 0 {
			n = 2 + gen.Intn(23)
			p = 0.3 + 0.7*gen.Float64()
		}
		gates := randomGates(gen, n, p, trial%5 == 0)
		restarts := trial % 12
		if trial%7 == 0 && len(gates) <= 80 {
			restarts = max(MinRestarts, 2*len(gates))
		}
		seed := gen.Int63()
		oldRNG := rand.New(rand.NewSource(seed))
		newRNG := rand.New(rand.NewSource(seed))
		want := legacyMISStages(gates, restarts, oldRNG)
		got := misStages(gates, restarts, newRNG)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, %d gates, %d restarts): stages differ\n got  %v\n want %v",
				trial, n, len(gates), restarts, got, want)
		}
		if g, w := newRNG.Int63(), oldRNG.Int63(); g != w {
			t.Fatalf("trial %d: next draw %d, legacy %d", trial, g, w)
		}
	}
}

// TestRandomMISMatchesLegacyWhenMostlyRemoved drives successive
// restarts over one block whose gates are mostly removed already, the
// state of a block's last extractions, so each restart must first clear
// the previous candidate's qubits.
func TestRandomMISMatchesLegacyWhenMostlyRemoved(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		gates := randomGates(gen, 2+gen.Intn(59), 0.1+0.8*gen.Float64(), trial%4 == 0)
		if len(gates) == 0 {
			continue
		}
		removed := make([]bool, len(gates))
		keep := 0.05 + 0.2*gen.Float64()
		for i := range removed {
			removed[i] = gen.Float64() >= keep
		}
		g := stage.ConflictGraph(gates)
		s := newMISScratch(gates)
		seed := gen.Int63()
		oldRNG := rand.New(rand.NewSource(seed))
		newRNG := rand.New(rand.NewSource(seed))
		for r := 0; r < 20; r++ {
			want := legacyRandomMIS(g, removed, oldRNG)
			got := s.randomMIS(removed, newRNG)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("trial %d restart %d: got %v, legacy %v", trial, r, got, want)
			}
		}
		if g, w := newRNG.Int63(), oldRNG.Int63(); g != w {
			t.Fatalf("trial %d: next draw %d, legacy %d", trial, g, w)
		}
	}
}

// rejectingSource forces Int31n's rejection loop: about half its
// values carry all-ones top bits, which every non-power-of-two bound
// rejects.
type rejectingSource struct{ rand.Source }

func (s rejectingSource) Int63() int64 {
	v := s.Source.Int63()
	if v&1 == 0 {
		v |= (1<<31 - 1) << 32
	}
	return v
}

// TestPermMatchesRandPerm pins misScratch.perm to rand.Perm: the same
// permutation and the same RNG state afterwards, for every length up to
// 2100 (every power of two up to 2048 included) and a few larger powers
// of two, on the stock source and on one that forces rejections.
func TestPermMatchesRandPerm(t *testing.T) {
	sizes := []int{4096, 1 << 16}
	for n := 0; n <= 2100; n++ {
		sizes = append(sizes, n)
	}
	sources := map[string]func(seed int64) rand.Source{
		"stock":     func(seed int64) rand.Source { return rand.NewSource(seed) },
		"rejecting": func(seed int64) rand.Source { return rejectingSource{rand.NewSource(seed)} },
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			for _, n := range sizes {
				s := newMISScratch(make([]circuit.CZ, n))
				seed := int64(n)*7919 + 1
				want := rand.New(src(seed))
				got := rand.New(src(seed))
				wantPerm := want.Perm(n)
				s.perm(got)
				if !reflect.DeepEqual(s.order, wantPerm) {
					t.Fatalf("n=%d: perm differs from rand.Perm", n)
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("n=%d: next draw %d, rand.Perm leaves %d", n, g, w)
				}
			}
		})
	}
}
