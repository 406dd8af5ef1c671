// Package enola is the configuration front end of the Enola baseline
// compiler the paper compares against (Sec. 3), reimplemented from its
// published description. The pass logic lives in internal/compiler's
// enola pipeline — validate → place → per block: mis-stage → per stage:
// route-home → group → batch → emit — over the same pass-manager driver
// as the zoned PowerMove pipeline, so the two schemes share one Stats
// type and one per-pass observability path and can no longer drift.
//
// Enola's defining characteristics, and the source of its limitations:
//
//   - Gate scheduling by iterated maximal-independent-set extraction on
//     the gate conflict graph, with randomized restarts seeking large
//     stages. This achieves near-optimal stage counts but is markedly
//     more expensive than PowerMove's one-shot greedy coloring.
//   - A fixed home layout in the computation zone. Every stage moves one
//     qubit of each CZ pair from its home site to its partner's home
//     site, and — to avoid the clustering of Fig. 3(b) — *reverts* every
//     mover to its home site before the next stage, doubling movement
//     and transfer volume.
//   - No storage zone: every idle qubit sits in the computation zone
//     during every Rydberg pulse and accrues excitation error.
package enola

import (
	"powermove/internal/arch"
	"powermove/internal/circuit"
	"powermove/internal/compiler"
)

// Options configures the baseline.
type Options struct {
	// Restarts is the number of randomized restarts per
	// maximal-independent-set extraction. Zero selects the default
	// instance-scaled effort (see MinRestarts), approximating the
	// original system's solver-grade independent-set searches, whose
	// cost grows with the instance. Each restart costs one random
	// permutation of the block, so restarts × gates draws per stage are
	// most of this reimplementation's compile time; the original's
	// solver is far slower, which is why the paper's Tcomp gap is wider
	// than the one reproduced here (docs/ARCHITECTURE.md).
	Restarts int
	// Seed drives the randomized restarts.
	Seed int64
}

// MinRestarts is the floor on the instance-scaled restart count; see
// compiler.MinRestarts.
const MinRestarts = compiler.MinRestarts

// Stats is the shared compiler statistics type; the baseline reports
// through the same fields (and per-pass breakdown) as the zoned
// pipeline.
type Stats = compiler.Stats

// Result carries the compiled baseline program and its home layout.
type Result = compiler.Result

// Pipeline maps opts onto a validated enola pass pipeline; negative
// restart counts are rejected here.
func Pipeline(opts Options) (*compiler.Pipeline, error) {
	return compiler.Enola(compiler.EnolaConfig{Restarts: opts.Restarts, Seed: opts.Seed})
}

// Compile lowers circ with the Enola movement scheme on architecture a.
// Only the computation zone of a is used; the program starts from and
// returns to the row-major home layout after every stage.
func Compile(circ *circuit.Circuit, a *arch.Arch, opts Options) (*Result, error) {
	p, err := Pipeline(opts)
	if err != nil {
		return nil, err
	}
	return p.Run(circ, a)
}
