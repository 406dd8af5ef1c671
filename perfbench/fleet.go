package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powermove"
	"powermove/internal/fleet"
	"powermove/internal/qasm"
	"powermove/internal/service"
	"powermove/internal/store"
)

const (
	// fleetRate is the nominal offered rate, well below the knee of two
	// one-worker backends (about 1000 req/s after a restart, 600 once
	// thousands of store writes have landed, on the two-CPU host the
	// benchmark was written on).
	fleetRate = 50.0
	// fleetConns is the client connection cap: one connection per
	// open-loop worker, event streams included.
	fleetConns = 2
	// fleetBackends is the fleet size behind the router.
	fleetBackends = 2
	// saturationTime is the length of the closed loop that measures
	// serve-fleet's throughput, and saturationCap a rate it cannot reach
	// (four times the knee), which sizes the requests dealt for it.
	saturationTime = 8 * time.Second
	saturationCap  = 4000
	// storeMaxBytes is powermoved's default -store-max-bytes.
	storeMaxBytes = 256 << 20
)

// Headers that carry the client's span to the backend handler span.
const (
	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

// newFleetServer builds one backend with powermoved's default config
// except for one worker.
func newFleetServer(instance string, st *store.Store) *service.Server {
	return service.New(service.Config{
		Instance:      instance,
		Workers:       1,
		CacheSize:     4096,
		SnapshotCache: 64,
		Store:         st,
	})
}

// fleetEnv is a running fleet: backends on loopback listeners behind a
// router, over one shared store directory, and the client that drives it.
type fleetEnv struct {
	dir      string
	backends []*service.Server
	https    []*http.Server
	router   *fleet.Router
	base     string
	client   *fleetClient
}

// setupFleet fills a fresh store directory through an earlier server
// instance, then starts the fleet over it, so the run has the shape of a
// daemon restart. The edit bases are compiled once through the router so
// their checkpoints sit in the snapshot stores of their backends.
func setupFleet(cfg config, n int, tr *tracer) (*fleetEnv, error) {
	env := &fleetEnv{dir: filepath.Join(cfg.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), n))}
	if err := os.RemoveAll(env.dir); err != nil {
		return nil, err
	}
	st, err := store.Open(env.dir, storeMaxBytes)
	if err != nil {
		return nil, err
	}
	earlier := newFleetServer("", st)
	for _, b := range hotKeys() {
		var req service.CompileRequest
		if err := json.Unmarshal(b, &req); err != nil {
			earlier.Close()
			return nil, err
		}
		if _, err := earlier.Compile(context.Background(), &req); err != nil {
			earlier.Close()
			return nil, fmt.Errorf("serve-fleet store fill: %s: %w", b, err)
		}
	}
	earlier.Close()

	var backends []fleet.Backend
	for i := 0; i < fleetBackends; i++ {
		st, err := store.Open(env.dir, storeMaxBytes)
		if err != nil {
			env.close()
			return nil, err
		}
		name := fmt.Sprintf("b%d", i)
		srv := newFleetServer(name, st)
		env.backends = append(env.backends, srv)
		u, err := env.serve(traceHandler(tr, srv.Handler()))
		if err != nil {
			env.close()
			return nil, err
		}
		backends = append(backends, fleet.Backend{Name: name, URL: u})
	}
	env.router, err = fleet.NewRouter(fleet.Config{Backends: backends})
	if err != nil {
		env.close()
		return nil, err
	}
	u, err := env.serve(env.router.Handler())
	if err != nil {
		env.close()
		return nil, err
	}
	env.base = u.String()
	env.client = newFleetClient(env.base, tr)
	for _, c := range editBases() {
		res := env.client.exchange(0, 0, http.MethodPost, "/v1/compile", qasmBody(qasm.Write(c)))
		if res.err != nil || res.status != http.StatusOK {
			env.close()
			return nil, fmt.Errorf("serve-fleet edit base: status %d: %v", res.status, res.err)
		}
	}
	return env, nil
}

// serve starts h on a loopback listener.
func (env *fleetEnv) serve(h http.Handler) (*url.URL, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	env.https = append(env.https, hs)
	go hs.Serve(ln)
	return url.Parse("http://" + ln.Addr().String())
}

// close stops the client, the router, the listeners and the backends,
// and removes the store directory.
func (env *fleetEnv) close() {
	if env.client != nil {
		env.client.hc.CloseIdleConnections()
	}
	if env.router != nil {
		env.router.Close()
	}
	for _, hs := range env.https {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		cancel()
	}
	for _, b := range env.backends {
		b.Close()
	}
	os.RemoveAll(env.dir)
}

// traceHandler records a "backend" span for each request that carries a
// client span id, as a child of that span. Without a tracer it returns h.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(0, parent, op, "backend", start, time.Now())
	})
}

// fleetClient is the load generator's HTTP client. Its transport holds at
// most fleetConns connections to the router; it counts the connections
// open at once, so the cap is checked rather than assumed.
type fleetClient struct {
	base    string
	hc      *http.Client
	tr      *tracer
	open    atomic.Int64
	maxOpen atomic.Int64
}

func newFleetClient(base string, tr *tracer) *fleetClient {
	c := &fleetClient{base: base, tr: tr}
	var d net.Dialer
	c.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     fleetConns,
		MaxIdleConnsPerHost: fleetConns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n := c.open.Add(1)
			for {
				m := c.maxOpen.Load()
				if n <= m || c.maxOpen.CompareAndSwap(m, n) {
					break
				}
			}
			return &countedConn{Conn: conn, open: &c.open}, nil
		},
	}}
	return c
}

type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// exchangeResult is one HTTP request/response.
type exchangeResult struct {
	status int
	body   []byte
	err    error
	span   int64
}

// exchange sends one request and reads the whole response. With a
// tracer and a non-zero parent it records an "http" span under parent
// and sends its id, so the backend handler span can name it as parent.
func (c *fleetClient) exchange(parent, op int64, method, path string, body []byte) exchangeResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return exchangeResult{err: err}
	}
	var id int64
	if parent != 0 {
		id = c.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return exchangeResult{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if parent != 0 {
		c.tr.record(id, parent, op, "http", start, time.Now())
	}
	return exchangeResult{status: resp.StatusCode, body: data, err: err, span: id}
}

// opResult is one operation's outcome, kept for the reference check.
type opResult struct {
	// doc is the compile document the operation returned (the async
	// class's fetched result); status and code are the invalid class's
	// rejection.
	doc    []byte
	status int
	code   string
	err    string
	// compileSpan is the http span of the /v1/compile exchange, for
	// the traced breakdown; queueMS is the async job's queue wait.
	compileSpan int64
	queueMS     float64
}

// do runs one operation. A traced operation records its op span from the
// due time, and its exchanges under it.
func (c *fleetClient) do(req fleetReq, due time.Time, op int64, traced bool) opResult {
	var opID int64
	if traced {
		opID = c.tr.newID()
		defer func() { c.tr.record(opID, 0, op, "op."+classNames[req.class], due, time.Now()) }()
	}
	x := c.exchange(opID, op, http.MethodPost, req.path, req.body)
	if x.err != nil {
		return opResult{err: x.err.Error()}
	}
	switch req.class {
	case classInvalid:
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		json.Unmarshal(x.body, &env)
		return opResult{status: x.status, code: env.Error.Code}
	case classAsync:
		return c.async(x, opID, op, traced)
	}
	if x.status != http.StatusOK {
		return opResult{err: fmt.Sprintf("status %d: %s", x.status, x.body)}
	}
	return opResult{doc: x.body, compileSpan: x.span}
}

// async follows a submitted job: it reads the job's event stream to its
// end, then fetches the result document. A traced operation also reads
// the job snapshot for its queue wait.
func (c *fleetClient) async(sub exchangeResult, opID, op int64, traced bool) opResult {
	if sub.status != http.StatusAccepted {
		return opResult{err: fmt.Sprintf("submit status %d: %s", sub.status, sub.body)}
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub.body, &snap); err != nil || snap.ID == "" {
		return opResult{err: fmt.Sprintf("submit: no job id in %s", sub.body)}
	}
	ev := c.exchange(opID, op, http.MethodGet, "/v1/jobs/"+snap.ID+"/events", nil)
	if ev.err != nil || ev.status != http.StatusOK {
		return opResult{err: fmt.Sprintf("events status %d: %v", ev.status, ev.err)}
	}
	if st := lastState(ev.body); st != "done" {
		return opResult{err: fmt.Sprintf("job %s ended %q", snap.ID, st)}
	}
	res := c.exchange(opID, op, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil)
	if res.err != nil || res.status != http.StatusOK {
		return opResult{err: fmt.Sprintf("result status %d: %v", res.status, res.err)}
	}
	out := opResult{doc: res.body}
	if traced {
		js := c.exchange(opID, op, http.MethodGet, "/v1/jobs/"+snap.ID, nil)
		var s struct {
			QueueMS float64 `json:"queue_ms"`
		}
		if js.err == nil && json.Unmarshal(js.body, &s) == nil {
			out.queueMS = s.QueueMS
		}
	}
	return out
}

// lastState returns the state of the stream's last "state" event.
func lastState(stream []byte) string {
	var state, event string
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var d struct {
				State string `json:"state"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d) == nil {
				state = d.State
			}
		}
	}
	return state
}

// phase is one open-loop stretch at a fixed rate, or a closed loop at
// rate 0.
type phase struct {
	rate    float64
	t0      time.Time
	reqs    []fleetReq
	results []opResult
	sends   []send
	aborted bool
	grew    bool
}

// latencies returns each send's latency from its due time, in ms.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.sends))
	for i, s := range p.sends {
		out[i] = ms(s.latency())
	}
	return out
}

// runPhase offers reqs at rate, or in a closed loop at rate 0. traced
// selects the operations that record spans; ops numbers them globally.
func (env *fleetEnv) runPhase(rate float64, reqs []fleetReq, maxLag time.Duration, ops *int64, traced func(i int) bool) *phase {
	p := &phase{rate: rate, reqs: reqs, results: make([]opResult, len(reqs))}
	base := *ops
	*ops += int64(len(reqs))
	p.t0 = time.Now().Add(5 * time.Millisecond)
	p.sends, p.aborted = openLoop(wallClock{}, p.t0, rate, len(reqs), fleetConns, maxLag, func(i int, due time.Time) {
		p.results[i] = env.client.do(reqs[i], due, base+int64(i)+1, traced != nil && traced(i))
	})
	if rate > 0 {
		p.grew = backlogGrew(backlog(p.sends, p.t0, rate), fleetConns)
	}
	return p
}

// saturate runs a closed loop over the connection cap for saturationTime
// and returns the phase and its completed requests per second.
func (env *fleetEnv) saturate(gen *mixGen, ops *int64) (*phase, float64) {
	p := env.runPhase(0, gen.take(int(saturationCap*saturationTime.Seconds())), saturationTime, ops, nil)
	end := p.t0
	for _, s := range p.sends {
		if s.End.After(end) {
			end = s.End
		}
	}
	return p, float64(len(p.sends)) / end.Sub(p.t0).Seconds()
}

// fleetCounters sums the backends' and router's counters at one instant.
type fleetCounters struct {
	hits, misses, prefixHits, warmStarts int64
	storeHits, storeMisses, storePuts    int64
	storeBytes                           int64
	attached, failovers                  int64
}

func (env *fleetEnv) counters() fleetCounters {
	var c fleetCounters
	for _, b := range env.backends {
		m := b.Metrics()
		c.hits += int64(m.Cache.Hits)
		c.misses += int64(m.Cache.Misses)
		c.prefixHits += m.Incremental.PrefixHits
		c.warmStarts += m.Incremental.WarmStarts
		c.attached += m.Jobs.Attached
		if m.Store != nil {
			c.storeHits += m.Store.Hits
			c.storeMisses += m.Store.Misses
			c.storePuts += m.Store.Puts
			// Both backends index the one shared directory; the
			// larger view is the more recent.
			c.storeBytes = max(c.storeBytes, m.Store.Bytes)
		}
	}
	c.failovers = env.router.Metrics().Failovers
	return c
}

func runServeFleet(cfg config, rep *report) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	n := 0
	env, setupS, err := setupTimes(func() (*fleetEnv, error) {
		n++
		return setupFleet(cfg, n, tr)
	}, (*fleetEnv).close)
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)

	gen := newMixGen(cfg.seed)
	var ops int64
	mem := startMem()

	// The nominal phase runs for the window; the closed loop that
	// measures throughput follows on a fleet set up like the first, so it
	// does not pay for the nominal phase's store writes. A traced run
	// skips the closed loop and traces every other operation of the
	// nominal phase.
	var traced func(int) bool
	if tr != nil {
		traced = func(i int) bool { return i%2 == 0 }
	}
	before := env.counters()
	nominal := env.runPhase(fleetRate, gen.take(int(fleetRate*cfg.seconds)), 0, &ops, traced)
	after := env.counters()
	mem.finish(rep)
	// The live heap is measured with the fleet that served the phase.
	rep.set("heap_mb", liveHeapMB())
	maxOpen := env.client.maxOpen.Load()
	if tr != nil {
		defer env.close()
	} else {
		env.close()
	}

	phases := []*phase{nominal}
	if tr == nil {
		sat, err := setupFleet(cfg, setupRepeats+1, nil)
		if err != nil {
			return err
		}
		p, rate := sat.saturate(gen, &ops)
		maxOpen = max(maxOpen, sat.client.maxOpen.Load())
		sat.close()
		if !p.aborted {
			rep.reject("serve-fleet: the closed loop ran out of its %d requests", len(p.reqs))
		}
		rep.set("throughput_per_s", rate)
		rep.notef("serve-fleet: closed loop over %d connections: %d requests in %v, %.4g/s",
			fleetConns, len(p.sends), saturationTime, rate)
		phases = append(phases, p)
	}

	lat := nominal.latencies()
	setOp(rep, newDist(lat))
	if nominal.grew {
		rep.reject("serve-fleet: the backlog grew at the nominal rate %.0f/s", fleetRate)
	}
	if maxOpen > fleetConns {
		rep.reject("serve-fleet: %d client connections open at once; the cap is %d", maxOpen, fleetConns)
	}
	rep.set("loadgen.max_conns", float64(maxOpen))
	var lags []float64
	for _, s := range nominal.sends {
		lags = append(lags, ms(s.lag()))
	}
	setLatency(rep, "loadgen.lag", newDist(lags))
	rep.notef("serve-fleet: nominal %.0f/s over %d ops, backlog grew %v", fleetRate, len(nominal.sends), nominal.grew)

	if tr != nil {
		fleetLayers(rep, tr, nominal, before, after)
		var tracedMS, plainMS []float64
		for i, x := range lat {
			if i%2 == 0 {
				tracedMS = append(tracedMS, x)
			} else {
				plainMS = append(plainMS, x)
			}
		}
		setOverhead(rep, tracedMS, plainMS)
		if err := writeSpans(cfg, rep, tr); err != nil {
			return err
		}
	}

	// Reference checks, outside the timed window.
	checkFleet(rep, phases)
	return nil
}

// fleetLayers reports the traced run's per-layer metrics from the nominal
// phase's spans and the counters bracketing it.
func fleetLayers(rep *report, tr *tracer, nominal *phase, before, after fleetCounters) {
	spans := tr.snapshot()
	backendOf := make(map[int64]span)
	for _, s := range spans {
		if s.Name == "backend" {
			backendOf[s.Parent] = s
		}
	}
	var hop, hit, fresh, overhead, queue []float64
	for _, s := range spans {
		if s.Name != "http" {
			continue
		}
		if b, ok := backendOf[s.ID]; ok {
			hop = append(hop, ms(s.dur()-b.dur()))
		}
	}
	for _, r := range nominal.results {
		if r.queueMS > 0 {
			queue = append(queue, r.queueMS)
		}
		b, ok := backendOf[r.compileSpan]
		if r.compileSpan == 0 || !ok {
			continue
		}
		var doc struct {
			Cached  bool    `json:"cached"`
			TcompMS float64 `json:"tcomp_ms"`
		}
		if json.Unmarshal(r.doc, &doc) != nil {
			continue
		}
		if doc.Cached {
			hit = append(hit, ms(b.dur()))
		} else {
			fresh = append(fresh, ms(b.dur()))
			overhead = append(overhead, ms(b.dur())-doc.TcompMS)
		}
	}
	compilerLayer(rep, nominal)
	classMS := make([][]float64, numClasses)
	for _, s := range nominal.sends {
		c := nominal.reqs[s.Index].class
		classMS[c] = append(classMS[c], ms(s.latency()))
	}
	for c, name := range classNames {
		setLatency(rep, "class."+name, newDist(classMS[c]))
	}
	setLatency(rep, "fleet.hop", newDist(hop))
	setLatency(rep, "service.hit", newDist(hit))
	setLatency(rep, "service.fresh", newDist(fresh))
	rep.set("service.overhead_ms", newDist(overhead).median())
	setLatency(rep, "jobs.queue", newDist(queue))

	d := func(a, b int64) float64 { return float64(b - a) }
	total := d(before.hits, after.hits) + d(before.misses, after.misses)
	if total > 0 {
		rep.set("pipeline.hit_ratio", d(before.hits, after.hits)/total)
	} else {
		rep.set("pipeline.hit_ratio", 0)
	}
	rep.set("pipeline.prefix_hits", d(before.prefixHits, after.prefixHits))
	rep.set("pipeline.warm_starts", d(before.warmStarts, after.warmStarts))
	rep.set("store.hits", d(before.storeHits, after.storeHits))
	rep.set("store.misses", d(before.storeMisses, after.storeMisses))
	rep.set("store.puts", d(before.storePuts, after.storePuts))
	rep.set("store.bytes", float64(after.storeBytes)/(1<<20))
	rep.set("jobs.attached", d(before.attached, after.attached))
	rep.set("fleet.failovers", d(before.failovers, after.failovers))
}

// compilerLayer reports the compiler metrics of the phase's freshly
// compiled responses, summed over the phase: per-pass self time and the
// remainder of tcomp_ms by scheme, Tcomp, moves and stages, and the
// geomeans of the with-storage outputs.
func compilerLayer(rep *report, p *phase) {
	sums := map[string]float64{}
	var fid, texe []float64
	for _, r := range p.results {
		var doc struct {
			Cached   bool    `json:"cached"`
			Scheme   string  `json:"scheme"`
			TcompMS  float64 `json:"tcomp_ms"`
			Moves    int     `json:"moves"`
			Stages   int     `json:"stages"`
			Fidelity float64 `json:"fidelity"`
			TexeUS   float64 `json:"texe_us"`
			Passes   []struct {
				Pass       string `json:"pass"`
				DurationNS int64  `json:"duration_ns"`
			} `json:"passes"`
		}
		if r.doc == nil || json.Unmarshal(r.doc, &doc) != nil || doc.Cached {
			continue
		}
		prefix := "compiler." + doc.Scheme + "."
		driver := doc.TcompMS
		for _, ps := range doc.Passes {
			x := float64(ps.DurationNS) / 1e6
			sums[prefix+ps.Pass+"_ms"] += x
			driver -= x
		}
		sums[prefix+"driver_ms"] += driver
		if doc.Scheme == "enola" {
			sums["compiler.tcomp_enola_ms"] += doc.TcompMS
		} else {
			sums["compiler.tcomp_zoned_ms"] += doc.TcompMS
		}
		sums["compiler.moves"] += float64(doc.Moves)
		sums["compiler.stages"] += float64(doc.Stages)
		if doc.Scheme == "with-storage" {
			fid = append(fid, doc.Fidelity)
			texe = append(texe, doc.TexeUS)
		}
	}
	for name, v := range sums {
		rep.set(name, v)
	}
	rep.set("compiler.fidelity_geomean", geomean(fid))
	rep.set("compiler.texe_geomean_us", geomean(texe))
}

// checkFleet counts every operation against its reference: a valid
// request's deterministic response fields must equal a direct library
// compile of the same request (no cache, store, router or incremental
// step), and an invalid one must get its expected 4xx and error code.
func checkFleet(rep *report, phases []*phase) {
	refs := map[string]string{}
	for _, p := range phases {
		for _, s := range p.sends {
			if r := p.reqs[s.Index]; r.ref != nil {
				refs[string(r.ref)] = ""
			}
		}
	}
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	docs := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < fleetConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				doc, err := powermove.CompileJSON(context.Background(), []byte(keys[i]))
				if err == nil {
					docs[i], err = maskedDoc(doc)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if errs[i] != nil {
			rep.notef("serve-fleet: reference compile of %s: %v", k, errs[i])
			continue
		}
		refs[k] = docs[i]
	}

	for _, p := range phases {
		for _, s := range p.sends {
			req, res := p.reqs[s.Index], p.results[s.Index]
			ok := res.err == ""
			switch {
			case !ok:
			case req.class == classInvalid:
				ok = res.status == req.wantStatus && res.code == req.wantCode
			default:
				got, err := maskedDoc(res.doc)
				ok = err == nil && refs[string(req.ref)] != "" && got == refs[string(req.ref)]
			}
			if !ok {
				rep.notef("serve-fleet: %s %s failed its reference check: status %d code %q err %q",
					classNames[req.class], truncate(req.body, 120), res.status, res.code, res.err)
			}
			rep.check(ok)
		}
	}
}

// maskedDoc canonicalizes a compile document with its wall-clock fields
// removed: tcomp_ms, cached, and each pass's duration.
func maskedDoc(doc []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return "", err
	}
	delete(m, "tcomp_ms")
	delete(m, "cached")
	if passes, ok := m["passes"].([]any); ok {
		for _, p := range passes {
			if pm, ok := p.(map[string]any); ok {
				delete(pm, "duration_ns")
			}
		}
	}
	out, err := json.Marshal(m)
	return string(out), err
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
