package compiler_test

import (
	"math/rand"
	"testing"

	"powermove/internal/circuit"
	"powermove/internal/compiler"
	"powermove/internal/experiments"
)

// BenchmarkMISStages times the Enola baseline's staging kernel (the
// mis-stage pass) on the largest CZ block any Enola job of the paper
// suite (Table 3 and Fig. 6) compiles, at the default instance-scaled
// restart count.
func BenchmarkMISStages(b *testing.B) {
	name, gates := largestEnolaBlock(b)
	restarts := max(compiler.MinRestarts, 2*len(gates))
	b.Logf("%s: %d gates, %d restarts", name, len(gates), restarts)
	b.ResetTimer()
	var stages int
	for i := 0; i < b.N; i++ {
		stages = len(compiler.MISStagesForTest(gates, restarts, rand.New(rand.NewSource(1))))
	}
	b.ReportMetric(float64(len(gates)), "gates")
	b.ReportMetric(float64(stages), "stages")
}

// largestEnolaBlock returns the paper-suite instance holding the CZ
// block with the most gates, and that block.
func largestEnolaBlock(tb testing.TB) (string, []circuit.CZ) {
	tb.Helper()
	specs := experiments.Table2Specs()
	for _, f := range experiments.Figure6Families() {
		for _, n := range experiments.Figure6Sizes(f) {
			specs = append(specs, experiments.Spec{Family: f, Qubits: n})
		}
	}
	var name string
	var gates []circuit.CZ
	for _, spec := range specs {
		c, err := spec.Circuit()
		if err != nil {
			tb.Fatal(err)
		}
		for _, blk := range c.Blocks {
			if len(blk.Gates) > len(gates) {
				name, gates = spec.String(), blk.Gates
			}
		}
	}
	return name, gates
}
