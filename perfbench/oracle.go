package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"powermove"
	"powermove/internal/circuit"
	"powermove/internal/experiments"
	"powermove/internal/pipeline"
	"powermove/internal/verify"
	"powermove/internal/workload"
)

// oracleSizes are the register sizes of the verify-oracle corpus: the
// per-state working set runs from 64 KiB to 64 MiB.
var oracleSizes = []int{12, 16, 20, 22}

// oracleWorkers bounds the simulator's goroutines, for a two-CPU host.
const oracleWorkers = 2

// oracleItem is one corpus entry with its known verdict.
type oracleItem struct {
	name   string
	item   verify.Item
	wantOK bool
}

// oracleCorpus holds the corpus by register size.
type oracleCorpus map[int][]oracleItem

// oracleFamilies are the paper families in the corpus, plus two seeded
// workload.Random circuits per size.
var oracleFamilies = []experiments.Family{
	experiments.QAOARegular3, experiments.QAOARegular4, experiments.QAOARandom,
	experiments.QFT, experiments.BV, experiments.VQE, experiments.QSim,
}

// buildOracleCorpus compiles every corpus circuit with the Enola baseline
// and the with-storage pipeline. Each program paired with its own circuit
// verifies clean; three per size are paired with the next circuit's
// circuit instead, so their known verdict is a violation.
func buildOracleCorpus() (oracleCorpus, error) {
	corpus := oracleCorpus{}
	for _, n := range oracleSizes {
		type src struct {
			name string
			gen  func() (*circuit.Circuit, error)
		}
		var srcs []src
		for _, f := range oracleFamilies {
			spec := experiments.Spec{Family: f, Qubits: n}
			srcs = append(srcs, src{spec.String(), spec.Circuit})
		}
		for s := int64(1); s <= 2; s++ {
			n, s := n, s
			srcs = append(srcs, src{fmt.Sprintf("random-%d@%d", n, s), func() (*circuit.Circuit, error) {
				return workload.Random(workload.RandomConfig{Qubits: n}, s), nil
			}})
		}
		var arts []pipeline.Artifacts
		for _, sc := range srcs {
			for _, scheme := range []pipeline.Scheme{pipeline.Enola, pipeline.WithStorage} {
				a, err := pipeline.CompileJob(pipeline.NewJob(sc.name, scheme, 1, sc.gen))
				if err != nil {
					return nil, fmt.Errorf("verify-oracle corpus %s/%s: %w", sc.name, scheme, err)
				}
				arts = append(arts, a)
				corpus[n] = append(corpus[n], oracleItem{
					name:   sc.name + "/" + string(scheme),
					item:   verify.Item{Circ: a.Circuit, Prog: a.Program, Initial: a.Initial},
					wantOK: true,
				})
			}
		}
		for k := 0; k < 3; k++ {
			// Program k paired with the circuit two entries on, which is
			// always another source circuit (each source has two entries).
			prog, other := arts[2*k], arts[2*k+2]
			corpus[n] = append(corpus[n], oracleItem{
				name:   fmt.Sprintf("mismatch-%d/%d", n, k),
				item:   verify.Item{Circ: other.Circuit, Prog: prog.Program, Initial: prog.Initial},
				wantOK: false,
			})
		}
	}
	return corpus, nil
}

// draw picks one batch: one item of each size, so every call has the same
// shape and the sizes' costs do not make the median bimodal.
func (c oracleCorpus) draw(r *rand.Rand) []oracleItem {
	batch := make([]oracleItem, len(oracleSizes))
	for i, n := range oracleSizes {
		batch[i] = c[n][r.Intn(len(c[n]))]
	}
	return batch
}

// oracleCall is one timed verification of a batch.
type oracleCall struct {
	reports []*verify.Report
	elapsed time.Duration
}

// verifyBatch verifies the batch in one powermove.VerifyBatch call.
func verifyBatch(batch []oracleItem) oracleCall {
	items := make([]verify.Item, len(batch))
	for i, b := range batch {
		items[i] = b.item
	}
	start := time.Now()
	reports, _ := powermove.VerifyBatch(items, oracleWorkers)
	return oracleCall{reports, time.Since(start)}
}

// verifyTraced verifies the batch as one VerifyBatch call per size, each a
// span under the operation with its physical-check and oracle phases as
// children. The oracle phase is the tail of the call, as long as the
// oracle's own reported ElapsedNS.
func verifyTraced(tr *tracer, op int64, batch []oracleItem) oracleCall {
	opID := tr.newID()
	var reports []*verify.Report
	start := time.Now()
	for i, b := range batch {
		s := time.Now()
		rs, st := powermove.VerifyBatch([]verify.Item{b.item}, oracleWorkers)
		e := time.Now()
		id := tr.record(0, opID, op, fmt.Sprintf("verify.n%d", oracleSizes[i]), s, e)
		split := e.Add(-time.Duration(st.ElapsedNS))
		tr.record(0, id, op, "verify.physical", s, split)
		tr.record(0, id, op, "verify.oracle", split, e)
		reports = append(reports, rs...)
	}
	end := time.Now()
	tr.record(opID, 0, op, "op", start, end)
	return oracleCall{reports, end.Sub(start)}
}

func runVerifyOracle(cfg config, rep *report) error {
	corpus, setupS, err := setupTimes(buildOracleCorpus, func(oracleCorpus) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var (
		callMS, tracedMS, plainMS []float64
		busy                      time.Duration
		verdicts                  int
		amps, gates, saved, bytes float64
		oracleNS                  int64
	)
	mem := startMem()
	// At least two calls, so a traced run has an untraced one to compare.
	for n := 0; n < 2 || busy < cfg.window(); n++ {
		batch := corpus.draw(rng)
		var call oracleCall
		traced := tr != nil && n%2 == 0
		if traced {
			call = verifyTraced(tr, int64(n+1), batch)
		} else {
			call = verifyBatch(batch)
		}
		busy += call.elapsed
		x := ms(call.elapsed)
		callMS = append(callMS, x)
		if traced {
			tracedMS = append(tracedMS, x)
		} else if tr != nil {
			plainMS = append(plainMS, x)
		}
		for i, r := range call.reports {
			verdicts++
			ok := r.OK() == batch[i].wantOK
			if !ok {
				rep.notef("verify-oracle: %s: verdict ok=%v, known answer ok=%v", batch[i].name, r.OK(), batch[i].wantOK)
			}
			rep.check(ok)
			if o := r.Oracle; traced && o != nil {
				// Bytes moved are computed, not measured: every applied
				// sweep reads and writes each state's 16-byte amplitudes.
				amps += float64(o.Amps)
				gates += float64(o.GatesApplied)
				saved += float64(o.SweepPassesSaved)
				bytes += float64(o.GatesApplied-o.SweepPassesSaved) * float64(o.Amps) / float64(o.States) * 32
			}
		}
	}
	mem.finish(rep)
	setOp(rep, newDist(callMS))
	rep.set("throughput_per_s", float64(verdicts)/busy.Seconds())
	// The live heap is measured with the corpus, the workload's state,
	// still referenced.
	rep.set("heap_mb", liveHeapMB())
	runtime.KeepAlive(corpus)
	rep.notef("verify-oracle: %d calls, %d verdicts in %.3fs of VerifyBatch", len(callMS), verdicts, busy.Seconds())
	if tr == nil {
		return nil
	}

	spans := tr.snapshot()
	self := selfByName(spans)
	traced := float64(len(tracedMS))
	rep.set("verify.physical_ms", self["verify.physical"]/traced)
	rep.set("verify.oracle_ms", self["verify.oracle"]/traced)
	sizeMS := map[string][]float64{}
	for _, s := range spans {
		sizeMS[s.Name] = append(sizeMS[s.Name], ms(s.dur()))
	}
	for _, n := range oracleSizes {
		name := fmt.Sprintf("verify.n%d", n)
		rep.set(name+"_ms", mean(sizeMS[name]))
	}
	for _, s := range spans {
		if s.Name == "verify.oracle" {
			oracleNS += s.End - s.Start
		}
	}
	rep.set("statevec.amps", amps/traced)
	rep.set("statevec.gates_applied", gates/traced)
	rep.set("statevec.sweeps_saved", saved/traced)
	rep.set("statevec.bytes_gb", bytes/traced/1e9)
	gbps := bytes / float64(oracleNS) // bytes per ns = GB/s
	bw := memBandwidthGBps()
	rep.set("statevec.gbps", gbps)
	rep.set("host.membw_gbps", bw)
	rep.set("statevec.membw_pct", 100*gbps/bw)
	setOverhead(rep, tracedMS, plainMS)
	return writeSpans(cfg, rep, tr)
}

// memBandwidthGBps calibrates the host's memory bandwidth in process: the
// median of several copies of a 64 MiB buffer, split across the oracle's
// workers, counting each byte read and written.
func memBandwidthGBps() float64 {
	const size = 8 << 20 // float64s: 64 MiB
	src := make([]float64, size)
	dst := make([]float64, size)
	for i := range src {
		src[i] = float64(i)
	}
	var rates []float64
	for rep := 0; rep < 7; rep++ {
		start := time.Now()
		var wg sync.WaitGroup
		chunk := size / oracleWorkers
		for w := 0; w < oracleWorkers; w++ {
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				copy(dst[lo:lo+chunk], src[lo:lo+chunk])
			}(w * chunk)
		}
		wg.Wait()
		rates = append(rates, 2*8*size/float64(time.Since(start).Nanoseconds()))
	}
	return newDist(rates).median()
}
