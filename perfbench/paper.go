package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"powermove/internal/circuit"
	"powermove/internal/experiments"
	"powermove/internal/pipeline"
	"powermove/internal/verify"
)

// paperJobs is the paper's whole evaluation job list — Table 3, the Fig. 6
// panels and Fig. 7 — built fresh so no circuit generator is shared with an
// earlier round, in an order permuted by r.
func paperJobs(r *rand.Rand) ([]pipeline.Job, error) {
	jobs := experiments.Table3Jobs()
	for _, f := range experiments.Figure6Families() {
		fj, err := experiments.Figure6Jobs(f)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, fj...)
	}
	jobs = append(jobs, experiments.Figure7Jobs()...)
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// paperRound is one pipeline.Run over the job list.
type paperRound struct {
	results []pipeline.Result
	kept    []*pipeline.Artifacts // by job index; nil for cache hits
	wall    time.Duration
}

// runPaperRound runs the jobs on one worker with a fresh cache. With a
// tracer it records the round, each job, the circuit generator, the
// compile with its passes as children, and the simulation after it.
func runPaperRound(jobs []pipeline.Job, tr *tracer, op int64) (*paperRound, error) {
	round := &paperRound{kept: make([]*pipeline.Artifacts, len(jobs))}
	keptAt := make([]time.Time, len(jobs))
	jobIDs := make([]int64, len(jobs))
	rid := tr.newID()
	for i := range jobs {
		i := i
		jobs[i].Keep = func(a pipeline.Artifacts) {
			keptAt[i] = time.Now()
			round.kept[i] = &a
		}
		if tr != nil {
			jobIDs[i] = tr.newID()
			gen := jobs[i].Circuit
			jobs[i].Circuit = func() (c *circuit.Circuit, err error) {
				start := time.Now()
				c, err = gen()
				tr.record(0, jobIDs[i], op, "workload.gen", start, time.Now())
				return c, err
			}
		}
	}
	var opts pipeline.Options
	opts.Workers = 1
	if tr != nil {
		// One worker runs the jobs in order, so the done count names the
		// job that just finished.
		opts.OnResult = func(done, _ int, r pipeline.Result) {
			end := time.Now()
			i := done - 1
			id := tr.record(jobIDs[i], rid, op, "job", end.Add(-r.Elapsed), end)
			if r.Cached || r.Err != nil || round.kept[i] == nil {
				return
			}
			cid := tr.record(0, id, op, "compile."+string(r.Key.Scheme), keptAt[i].Add(-r.Outcome.Tcomp), keptAt[i])
			at := keptAt[i].Add(-r.Outcome.Tcomp)
			for _, p := range r.Outcome.Passes {
				tr.record(0, cid, op, "pass."+string(r.Key.Scheme)+"."+p.Pass, at, at.Add(p.Duration))
				at = at.Add(p.Duration)
			}
			tr.record(0, id, op, "sim.execute", keptAt[i], end)
		}
	}
	start := time.Now()
	results, _, err := pipeline.Run(context.Background(), jobs, opts)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	round.wall = end.Sub(start)
	round.results = results
	tr.record(rid, 0, op, "round", start, end)
	return round, nil
}

// paperSetup is the state the timed rounds need: the job-order source and
// the reference outcomes of a warm-up round.
type paperSetup struct {
	rng *rand.Rand
	ref map[pipeline.Key]pipeline.Outcome
}

// checkPaperRound counts each job against the reference, outside the
// timed window: no job errors, every kept program passes the physical
// legality checker, and every outcome's deterministic fields equal the
// warm-up round's.
func checkPaperRound(rep *report, round *paperRound, ref map[pipeline.Key]pipeline.Outcome) {
	for i, r := range round.results {
		ok := r.Err == nil
		if ok && round.kept[i] != nil {
			ok = verify.CheckPhysical(round.kept[i].Program, round.kept[i].Initial).OK()
		}
		if ok {
			got, want := r.Outcome, ref[r.Key]
			got.Stabilize()
			ok = reflect.DeepEqual(got, want)
		}
		if !ok {
			rep.notef("paper-suite: job %s failed its reference check (err %v)", r.Key, r.Err)
		}
		rep.check(ok)
	}
}

func runPaperSuite(cfg config, rep *report) error {
	su, setupS, err := setupTimes(func() (*paperSetup, error) {
		jobs, err := paperJobs(rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return nil, err
		}
		round, err := runPaperRound(jobs, nil, 0)
		if err != nil {
			return nil, err
		}
		ref := make(map[pipeline.Key]pipeline.Outcome, len(round.results))
		for _, r := range round.results {
			if r.Err != nil {
				return nil, fmt.Errorf("paper-suite warm-up: %s: %w", r.Key, r.Err)
			}
			o := r.Outcome
			o.Stabilize()
			ref[r.Key] = o
		}
		// The timed rounds draw their orders after the warm-up's.
		return &paperSetup{rng: rand.New(rand.NewSource(cfg.seed + 1)), ref: ref}, nil
	}, func(*paperSetup) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		jobMS, tracedMS, plainMS []float64
		compiles                 int
		busy                     time.Duration
		rates                    []float64 // compiles/s per round
		tcompZoned, tcompEnola   []float64
		moves, stages, instrs    float64
		tracedRounds             int
		last                     *paperRound
	)
	mem := startMem()
	// The window counts pipeline.Run time only; building job lists and
	// the reference checks happen between rounds, outside it.
	// At least two rounds, so a traced run has an untraced one to compare.
	for n := 0; n < 2 || busy < cfg.window(); n++ {
		jobs, err := paperJobs(su.rng)
		if err != nil {
			return err
		}
		// The traced run traces every other round, so its untraced rounds
		// measure the tracing overhead.
		var rt *tracer
		if tr != nil && n%2 == 0 {
			rt = tr
			tracedRounds++
		}
		round, err := runPaperRound(jobs, rt, int64(n+1))
		if err != nil {
			return err
		}
		busy += round.wall
		var zoned, enola time.Duration
		roundCompiles := 0
		for i, r := range round.results {
			x := ms(r.Elapsed)
			jobMS = append(jobMS, x)
			if rt != nil {
				tracedMS = append(tracedMS, x)
			} else {
				plainMS = append(plainMS, x)
			}
			if r.Cached || r.Err != nil {
				continue
			}
			roundCompiles++
			if r.Key.Scheme == pipeline.Enola {
				enola += r.Outcome.Tcomp
			} else {
				zoned += r.Outcome.Tcomp
			}
			if rt != nil {
				moves += float64(r.Outcome.Moves)
				stages += float64(r.Outcome.Stages)
				if k := round.kept[i]; k != nil {
					instrs += float64(len(k.Program.Instr))
				}
			}
		}
		compiles += roundCompiles
		rates = append(rates, float64(roundCompiles)/round.wall.Seconds())
		tcompZoned = append(tcompZoned, ms(zoned))
		tcompEnola = append(tcompEnola, ms(enola))
		checkPaperRound(rep, round, su.ref)
		last = round
	}
	mem.finish(rep)

	setOp(rep, newDist(jobMS))
	// Compiles per second of the median round: a host stall during one
	// round moves the mean, not the median.
	rep.set("throughput_per_s", newDist(rates).median())
	rep.set("compiler.tcomp_zoned_ms", newDist(tcompZoned).median())
	rep.set("compiler.tcomp_enola_ms", newDist(tcompEnola).median())
	var keys []pipeline.Key
	for k := range su.ref {
		if k.Scheme == pipeline.WithStorage {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var fid, texe []float64
	for _, k := range keys {
		fid = append(fid, su.ref[k].Fidelity)
		texe = append(texe, su.ref[k].Texe)
	}
	// Every round's outcomes were checked equal to the reference, so its
	// deterministic fields are this run's outputs.
	rep.set("compiler.fidelity_geomean", geomean(fid))
	rep.set("compiler.texe_geomean_us", geomean(texe))
	rep.set("heap_mb", liveHeapMB())
	runtime.KeepAlive(last)
	rep.notef("paper-suite: %d rounds, %d compiles in %.3fs of pipeline.Run", len(tcompZoned), compiles, busy.Seconds())

	if tr == nil {
		return nil
	}
	per := func(x float64) float64 { return x / float64(tracedRounds) }
	self := selfByName(tr.snapshot())
	rep.set("workload.gen_ms", per(self["workload.gen"]))
	rep.set("sim.execute_ms", per(self["sim.execute"]))
	rep.set("pipeline.engine_ms", per(self["round"]))
	for _, s := range schemes {
		rep.set("compiler."+s+".driver_ms", per(self["compile."+s]))
		for _, p := range passNames[s] {
			rep.set("compiler."+s+"."+p+"_ms", per(self["pass."+s+"."+p]))
		}
	}
	for name := range self {
		if len(name) > 5 && name[:5] == "pass." {
			if _, ok := rep.units["compiler."+name[5:]+"_ms"]; !ok {
				rep.notef("paper-suite: pass %s is not a declared metric", name[5:])
			}
		}
	}
	rep.set("compiler.moves", per(moves))
	rep.set("compiler.stages", per(stages))
	rep.set("compiler.isa_instrs", per(instrs))
	setOverhead(rep, tracedMS, plainMS)
	return writeSpans(cfg, rep, tr)
}
