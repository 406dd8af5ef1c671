// Command perfbench is the repository's benchmark: one command that runs
// one of three workloads through the system's public entry points, checks
// every output against a reference outside the timed window, and prints
// its metrics by name with their units. Run it through run.sh, which
// builds it from source:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// the calls into each layer, writes them to the output directory, and
// prints the per-layer metrics. README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"powermove/internal/statevec"
)

// processStart approximates process start: package initialization runs
// before main.
var processStart = time.Now()

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "paper-suite, serve-fleet or verify-oracle")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and store directories")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := runMain(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(cfg config) error {
	run, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	rep := newReport(cfg)
	if err := run(cfg, rep); err != nil {
		return err
	}
	return rep.print(os.Stdout)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"paper-suite":   runPaperSuite,
	"serve-fleet":   runServeFleet,
	"verify-oracle": runVerifyOracle,
}

// metricDef declares one metric. End-to-end metrics carry the direction
// and regression bound BENCHMARK.json records.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the end-to-end metrics. Every workload reports every
// one of them, each from its own operations.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"good_ratio", "ratio", "higher", 0.01},
	// Work completed per second at saturation: compiles, requests or
	// verdicts.
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's metrics, each with the workload that
// measures it ("" for all). Every traced run prints all of them; a metric
// of a layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

// passNames are the compiler passes each scheme's pipeline runs, as
// PassStats names them.
var passNames = map[string][]string{
	"enola":        {"validate", "place", "mis-stage", "route-home", "group", "batch", "lower", "emit"},
	"non-storage":  {"validate", "place", "stage-partition", "route", "group", "batch", "lower", "emit"},
	"with-storage": {"validate", "place", "stage-partition", "stage-order", "route", "collsched-order", "group", "batch", "lower", "emit"},
}

var schemes = []string{"enola", "non-storage", "with-storage"}

type layerDef struct {
	metricDef
	workload string
}

func buildPerLayer() []layerDef {
	var out []layerDef
	add := func(w, name, unit string) {
		out = append(out, layerDef{metricDef{Name: name, Unit: unit, Better: betterFor(name)}, w})
	}
	for _, m := range [][2]string{
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_pause_ms", "ms"},
		{"op.tail_ms", "ms"}, {"op.samples", "count"}, {"op.tail_pct", "%"},
		{"trace.overhead_ms", "ms"}, {"trace.spans", "count"},
	} {
		add("", m[0], m[1])
	}
	const ps = "paper-suite"
	add(ps, "workload.gen_ms", "ms")
	for _, s := range schemes {
		for _, p := range passNames[s] {
			add(ps, "compiler."+s+"."+p+"_ms", "ms")
		}
		add(ps, "compiler."+s+".driver_ms", "ms")
	}
	add(ps, "compiler.tcomp_zoned_ms", "ms")
	add(ps, "compiler.tcomp_enola_ms", "ms")
	add(ps, "compiler.fidelity_geomean", "ratio")
	add(ps, "compiler.texe_geomean_us", "sim_us")
	add(ps, "compiler.moves", "count")
	add(ps, "compiler.stages", "count")
	add(ps, "compiler.isa_instrs", "count")
	add(ps, "sim.execute_ms", "ms")
	add(ps, "pipeline.engine_ms", "ms")

	const sf = "serve-fleet"
	add(sf, "pipeline.hit_ratio", "ratio")
	add(sf, "pipeline.prefix_hits", "count")
	add(sf, "pipeline.warm_starts", "count")
	add(sf, "store.hits", "count")
	add(sf, "store.misses", "count")
	add(sf, "store.puts", "count")
	add(sf, "store.bytes", "MB")
	add(sf, "jobs.queue_ms", "ms")
	add(sf, "jobs.queue_tail_ms", "ms")
	add(sf, "jobs.attached", "count")
	add(sf, "service.hit_ms", "ms")
	add(sf, "service.hit_tail_ms", "ms")
	add(sf, "service.fresh_ms", "ms")
	add(sf, "service.fresh_tail_ms", "ms")
	add(sf, "service.overhead_ms", "ms")
	add(sf, "fleet.hop_ms", "ms")
	add(sf, "fleet.hop_tail_ms", "ms")
	add(sf, "fleet.failovers", "count")
	add(sf, "loadgen.lag_ms", "ms")
	add(sf, "loadgen.lag_tail_ms", "ms")
	add(sf, "loadgen.max_conns", "count")
	for _, c := range classNames {
		add(sf, "class."+c+"_ms", "ms")
		add(sf, "class."+c+"_tail_ms", "ms")
	}

	const vo = "verify-oracle"
	add(vo, "verify.physical_ms", "ms")
	add(vo, "verify.oracle_ms", "ms")
	for _, n := range oracleSizes {
		add(vo, fmt.Sprintf("verify.n%d_ms", n), "ms")
	}
	add(vo, "statevec.amps", "count")
	add(vo, "statevec.gates_applied", "count")
	add(vo, "statevec.sweeps_saved", "count")
	add(vo, "statevec.bytes_gb", "GB")
	add(vo, "statevec.gbps", "GB/s")
	add(vo, "statevec.membw_pct", "%")
	add(vo, "host.membw_gbps", "GB/s")
	return out
}

// betterFor gives a per-layer metric's direction: counts of useful work
// and rates are higher-is-better, times and costs lower-is-better.
func betterFor(name string) string {
	for _, hi := range []string{
		"pipeline.hit_ratio", "pipeline.prefix_hits", "pipeline.warm_starts",
		"store.hits", "statevec.sweeps_saved", "statevec.gbps", "statevec.membw_pct",
		"host.membw_gbps", "op.samples", "op.tail_pct", "compiler.fidelity_geomean",
	} {
		if name == hi {
			return "higher"
		}
	}
	return "lower"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's result line.
type report struct {
	units map[string]string
	// required are the metrics the run must measure; the mode's other
	// metrics belong to layers the workload does not exercise.
	required  map[string]bool
	attempted int
	good      int
	failed    int
	metrics   map[string]metric
	notes     []string
	// rejected holds reasons the run as a whole is invalid, beyond any
	// single operation's check.
	rejected []string
}

// newReport admits the metrics of the run's mode: every end-to-end
// metric, or every per-layer metric with those of the workload required.
func newReport(cfg config) *report {
	r := &report{units: map[string]string{}, required: map[string]bool{}, metrics: map[string]metric{}}
	if cfg.trace {
		for _, d := range perLayer {
			r.units[d.Name] = d.Unit
			r.required[d.Name] = d.workload == "" || d.workload == cfg.workload
		}
		return r
	}
	for _, d := range endToEnd {
		r.units[d.Name] = d.Unit
		r.required[d.Name] = true
	}
	return r
}

// set records a metric the run's mode reports; others are ignored, so a
// workload computes its metrics once for both modes.
func (r *report) set(name string, v float64) {
	if unit, ok := r.units[name]; ok {
		r.metrics[name] = metric{v, unit}
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// reject marks the whole run invalid.
func (r *report) reject(format string, args ...any) {
	r.rejected = append(r.rejected, fmt.Sprintf(format, args...))
	r.notef(format, args...)
}

// check counts one operation against its reference.
func (r *report) check(ok bool) {
	r.attempted++
	if ok {
		r.good++
	} else {
		r.failed++
	}
}

// print writes the notes, then the result object as the last line. Every
// required metric must have been set with a finite value; the others
// read 0.
func (r *report) print(f *os.File) error {
	if r.attempted == 0 {
		return fmt.Errorf("no operations attempted")
	}
	r.set("good_ratio", float64(r.good)/float64(r.attempted))
	var missing []string
	for name := range r.units {
		m, ok := r.metrics[name]
		if !ok && !r.required[name] {
			r.metrics[name] = metric{0, r.units[name]}
		} else if !ok {
			missing = append(missing, name)
		} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	r.notef("kernel_isa=%s goos=%s goarch=%s gomaxprocs=%d go=%s",
		statevec.KernelISA, runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.rejected) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}

// setupRepeats is how many times a workload sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

// setupTimes runs build setupRepeats times, tearing down all but the last
// result, and returns it with the median set-up time in seconds. The
// first set-up is timed from process start.
func setupTimes[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			teardown(v)
		}
		last = v
	}
	return last, newDist(times).median(), nil
}

// memWindow brackets the timed window's allocation and GC pause totals.
type memWindow struct{ start runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// finish reports the window's runtime metrics.
func (w *memWindow) finish(r *report) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.set("runtime.alloc_mb", float64(end.TotalAlloc-w.start.TotalAlloc)/(1<<20))
	r.set("runtime.gc_pause_ms", float64(end.PauseTotalNs-w.start.PauseTotalNs)/1e6)
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setLatency reports a latency sample as <base>_ms and <base>_tail_ms.
func setLatency(r *report, base string, d dist) {
	r.set(base+"_ms", d.median())
	v, _ := d.tail()
	r.set(base+"_tail_ms", v)
}

// setOp reports the operation latency sample: the end-to-end p50 and, for
// the traced run, the tail with the sample size and the tail's percentile.
func setOp(r *report, d dist) {
	r.set("op_p50_ms", d.median())
	v, pct := d.tail()
	r.set("op.tail_ms", v)
	r.set("op.samples", float64(len(d)))
	r.set("op.tail_pct", pct)
	r.notef("op: p50 %.4g ms, tail %.4g ms at p%.4g over %d samples", d.median(), v, pct, len(d))
}

// setOverhead reports the traced-minus-untraced op p50 from a traced run
// that traced every other operation.
func setOverhead(r *report, traced, untraced []float64) {
	r.set("trace.overhead_ms", newDist(traced).median()-newDist(untraced).median())
}

// writeSpans saves the traced run's spans and reports their count.
func writeSpans(cfg config, r *report, t *tracer) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"kernel_isa": statevec.KernelISA, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(),
	}
	if err := t.write(path, meta); err != nil {
		return err
	}
	r.set("trace.spans", float64(len(t.snapshot())))
	r.notef("spans: %s", path)
	return nil
}
