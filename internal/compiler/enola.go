// The Enola pipeline: the revert-to-home baseline compiler the paper
// compares against (Sec. 3), as a pass composition over the same
// pass-manager driver as the zoned pipeline. See internal/enola for the
// baseline's characterization; the pass logic lives here so both
// schemes share one driver, one Stats type, and one observability path.
package compiler

import (
	"fmt"
	"math/rand"

	"powermove/internal/circuit"
	"powermove/internal/collsched"
	"powermove/internal/isa"
	"powermove/internal/layout"
	"powermove/internal/move"
	"powermove/internal/stage"
)

// MinRestarts is the floor on the Enola pipeline's instance-scaled
// restart count: each stage extraction tries at least this many random
// greedy orders and keeps the largest independent set found. The
// default effort is max(MinRestarts, 2 * gates-in-block), approximating
// the scaling of the original's Maximum-Independent-Set solver.
const MinRestarts = 16

// EnolaConfig configures one baseline pipeline.
type EnolaConfig struct {
	// Restarts is the number of randomized restarts per
	// maximal-independent-set extraction; zero selects the default
	// instance-scaled effort (see MinRestarts). Negative counts fail
	// Enola.
	Restarts int
	// Seed drives the randomized restarts.
	Seed int64
}

// Enola validates cfg and assembles the baseline pipeline:
//
//	validate → place → lower(per block: mis-stage → per stage:
//	route-home → group → batch → emit)
//
// where route-home produces both the forward leg and the revert leg of
// the baseline's doubled movement, and emit interleaves them around the
// Rydberg pulse.
func Enola(cfg EnolaConfig) (*Pipeline, error) {
	if cfg.Restarts < 0 {
		return nil, fmt.Errorf("compiler: negative restart count %d", cfg.Restarts)
	}
	// The baseline shares the zoned pipeline's non-storage validate and
	// place passes: capacity-check against the computation zone, then
	// the row-major compute-zone home layout (which the baseline never
	// mutates — every stage starts from and reverts to home).
	p, err := New("enola",
		validatePass(false),
		placePass(false),
		&blockLoop{
			blockPasses: []Pass{misStagePass(cfg.Restarts)},
			stagePasses: []Pass{routeHomePass(), enolaGroupPass(), enolaBatchPass(), enolaEmitPass()},
		},
	)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	p.init = append(p.init, func(ctx *Context) error {
		ctx.RNG = rand.New(rand.NewSource(seed))
		return nil
	})
	return p, nil
}

// misStagePass schedules the block by iterated maximal-independent-set
// extraction with randomized restarts — the baseline's
// quality-over-speed trade-off. Its restart loop draws one random
// permutation of the block per restart per extracted stage, and those
// draws are most of the baseline's compile time.
func misStagePass(restarts int) Pass {
	return NewPassEffects("mis-stage", ReadsBlock|ReadsConfig|ReadsRNG, func(ctx *Context) error {
		r := restarts
		if r == 0 {
			r = 2 * len(ctx.Block.Gates)
			if r < MinRestarts {
				r = MinRestarts
			}
		}
		ctx.Stages = misStages(ctx.Block.Gates, r, ctx.RNG)
		ctx.Stats.Stages += len(ctx.Stages)
		return nil
	})
}

// routeHomePass produces the baseline's doubled movement for one stage:
// the forward leg to the partners' home sites and the revert leg back.
func routeHomePass() Pass {
	return NewPassEffects("route-home", ReadsBlock|ReadsLayout, func(ctx *Context) error {
		ctx.Moves = stageMoves(ctx.Layout, *ctx.Stage)
		ctx.MovesBack = reverseMoves(ctx.Moves)
		ctx.Stats.Moves += len(ctx.Moves) + len(ctx.MovesBack)
		return nil
	})
}

// enolaGroupPass packs both legs arrival-order first-fit, the
// baseline's grouping.
func enolaGroupPass() Pass {
	return NewPassEffects("group", ReadsBlock, func(ctx *Context) error {
		ctx.Groups = move.GroupInOrder(ctx.Moves)
		ctx.GroupsBack = move.GroupInOrder(ctx.MovesBack)
		return nil
	})
}

// enolaBatchPass batches both legs. The baseline's historical
// accounting counts emitted batches as its CollMoves, preserved here so
// the unified Stats reproduces the legacy enola.Stats exactly.
func enolaBatchPass() Pass {
	return NewPassEffects("batch", ReadsBlock|ReadsArch, func(ctx *Context) error {
		ctx.Batches = collsched.Batch(ctx.Groups, ctx.Arch.AODs)
		ctx.BatchesBack = collsched.Batch(ctx.GroupsBack, ctx.Arch.AODs)
		n := len(ctx.Batches) + len(ctx.BatchesBack)
		ctx.Stats.CollMoves += n
		ctx.Stats.Batches += n
		return nil
	})
}

// enolaEmitPass interleaves the legs around the Rydberg pulse:
// out-batches, pulse, revert batches.
func enolaEmitPass() Pass {
	return NewPassEffects("emit", ReadsBlock|WritesProgram, func(ctx *Context) error {
		for _, batch := range ctx.Batches {
			ctx.Program.Instr = append(ctx.Program.Instr, batch)
		}
		ctx.Program.Instr = append(ctx.Program.Instr, isa.Rydberg{Stage: ctx.StageID, Pairs: ctx.Stage.Gates})
		for _, batch := range ctx.BatchesBack {
			ctx.Program.Instr = append(ctx.Program.Instr, batch)
		}
		return nil
	})
}

// misStages partitions a commutable block into Rydberg stages by
// repeatedly extracting a maximal independent set from the gate
// conflict graph. Each extraction runs the deterministic
// min-residual-degree greedy plus the configured number of
// random-permutation restarts and keeps the largest set found.
//
// The conflict graph is the line graph of the block's gates (two gates
// conflict iff they share a qubit), so a restart tests a gate against
// the set so far by its two qubits' occupancy rather than by scanning
// its conflict-graph neighbours. All restarts of a block share one
// scratch, so the restart loop allocates nothing; its cost is the
// permutation draws, restarts × len(gates) per stage.
func misStages(gates []circuit.CZ, restarts int, rng *rand.Rand) []stage.Stage {
	if len(gates) == 0 {
		return nil
	}
	g := stage.ConflictGraph(gates)
	s := newMISScratch(gates)
	removed := make([]bool, len(gates))
	remaining := len(gates)
	var stages []stage.Stage
	for remaining > 0 {
		best := g.MaximalIndependentSet(removed)
		for r := 0; r < restarts; r++ {
			if cand := s.randomMIS(removed, rng); len(cand) > len(best) {
				best = append(best[:0], cand...)
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

// misScratch is the reusable state of one block's randomized restarts.
type misScratch struct {
	gates []circuit.CZ
	// order receives each restart's random permutation of gate indices.
	order []int
	// limit[i] is the largest accepted 31-bit draw for a uniform choice
	// among i+1 values (see perm).
	limit []int32
	// busy marks the qubits of the gates in cand.
	busy []bool
	cand []int
}

func newMISScratch(gates []circuit.CZ) *misScratch {
	maxQ := 0
	for _, g := range gates {
		maxQ = max(maxQ, g.A, g.B)
	}
	s := &misScratch{
		gates: gates,
		order: make([]int, len(gates)),
		limit: make([]int32, len(gates)),
		busy:  make([]bool, maxQ+1),
	}
	for i := range s.limit {
		s.limit[i] = int32((1 << 31) - 1 - (1<<31)%uint32(i+1))
	}
	return s
}

// perm fills s.order with a random permutation, consuming exactly the
// draws rng.Perm(len(s.order)) consumes and producing the same
// permutation: the inside-out Fisher–Yates shuffle, with each
// rng.Intn(i+1) expanded into Int31n's rejection rule over rng.Int31.
// For a power-of-two bound the threshold is 2^31-1, so nothing is
// rejected and v%n equals Int31n's mask.
func (s *misScratch) perm(rng *rand.Rand) {
	order := s.order
	for i := range order {
		n, limit := int32(i+1), s.limit[i]
		v := rng.Int31()
		for v > limit {
			v = rng.Int31()
		}
		j := int(v % n)
		order[i] = order[j]
		order[j] = i
	}
}

// randomMIS builds a maximal independent set by scanning the unremoved
// gates in a random order and keeping each gate whose qubits are both
// still free. The returned slice is reused by the next call.
func (s *misScratch) randomMIS(removed []bool, rng *rand.Rand) []int {
	for _, v := range s.cand {
		s.busy[s.gates[v].A] = false
		s.busy[s.gates[v].B] = false
	}
	s.cand = s.cand[:0]
	s.perm(rng)
	for _, v := range s.order {
		if removed[v] {
			continue
		}
		g := s.gates[v]
		if s.busy[g.A] || s.busy[g.B] {
			continue
		}
		s.busy[g.A] = true
		s.busy[g.B] = true
		s.cand = append(s.cand, v)
	}
	return s.cand
}

// stageMoves produces the baseline's forward movement for one stage:
// the lower-indexed qubit of each CZ pair travels to its partner's home
// site (the relocation distance is symmetric, so the choice is a
// deterministic convention). Home sites hold one qubit each, so the
// destination site ends with exactly the interacting pair and no
// clustering arises.
func stageMoves(home *layout.Layout, st stage.Stage) []move.Move {
	a := home.Arch()
	var moves []move.Move
	for _, g := range st.Gates {
		moves = append(moves, move.New(a, g.A, home.SiteOf(g.A), home.SiteOf(g.B)))
	}
	return moves
}

// reverseMoves inverts a set of moves, sending each mover back home.
func reverseMoves(moves []move.Move) []move.Move {
	out := make([]move.Move, len(moves))
	for i, m := range moves {
		out[i] = move.Move{
			Qubit:    m.Qubit,
			FromSite: m.ToSite,
			ToSite:   m.FromSite,
			From:     m.To,
			To:       m.From,
		}
	}
	return out
}
