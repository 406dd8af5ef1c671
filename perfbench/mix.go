package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"powermove/internal/circuit"
	"powermove/internal/experiments"
	"powermove/internal/qasm"
	"powermove/internal/service"
	"powermove/internal/workload"
)

// fleetReq is one generated serve-fleet operation.
type fleetReq struct {
	class int
	// path and body are what the client sends first: POST /v1/compile,
	// or POST /v1/jobs for the async class.
	path string
	body []byte
	// ref is the compile request whose direct library compile is this
	// operation's reference document; nil for the invalid class.
	ref []byte
	// wantStatus and wantCode are the invalid class's expected rejection.
	wantStatus int
	wantCode   string
}

// validFamilies are the families whose generators accept every size the
// mix draws; QAOA-regular3 additionally needs an even size (see validSize).
var validFamilies = []experiments.Family{
	experiments.QAOARegular3, experiments.QAOARegular4, experiments.QAOARandom,
	experiments.QFT, experiments.BV, experiments.VQE, experiments.QSim,
}

// validSize rounds n into the family's valid domain: a 3-regular graph
// needs an even vertex count.
func validSize(f experiments.Family, n int) int {
	if f == experiments.QAOARegular3 && n%2 == 1 {
		n++
	}
	return n
}

func compileBody(f experiments.Family, n int, seed *int64, scheme string, verify bool) []byte {
	req := service.CompileRequest{
		Workload:    &service.WorkloadSpec{Family: string(f), Qubits: n, Seed: seed},
		CompileSpec: service.CompileSpec{Scheme: scheme, Verify: verify},
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return b
}

func qasmBody(src string) []byte {
	b, err := json.Marshal(service.CompileRequest{QASM: src})
	if err != nil {
		panic(err)
	}
	return b
}

// hotKeys are the few hundred popular compile requests: every family at
// six small sizes, under all three schemes, with the paper's spec-derived
// seed and with an explicit one.
func hotKeys() [][]byte {
	var keys [][]byte
	one := int64(1)
	for _, f := range validFamilies {
		for _, n := range []int{8, 10, 12, 14, 16, 18} {
			for _, s := range schemes {
				keys = append(keys, compileBody(f, n, nil, s, false))
				keys = append(keys, compileBody(f, n, &one, s, false))
			}
		}
	}
	return keys
}

// editBases are the circuits the edit class resubmits with a changed
// last block, so their block prefix resumes from a checkpoint.
func editBases() []*circuit.Circuit {
	return []*circuit.Circuit{
		workload.QAOARegularP(20, 3, 4, 11),
		workload.QAOARegularP(18, 4, 4, 12),
		workload.QSim(16, 13),
		workload.QAOARegularP(24, 3, 3, 14),
	}
}

// invalidBodies are requests the server rejects today with a 4xx and a
// stable code. Bodies that crash the server today (QAOA-regular3 or
// QAOA-regular4 with an odd degree sum, such as n=5; see ROADMAP item 1)
// are left out until that is fixed.
var invalidBodies = []struct {
	body   string
	status int
	code   string
}{
	{`{"workload":{"family":"GHZ","qubits":10}}`, http.StatusBadRequest, service.CodeInvalidRequest},
	{`{"workload":{"family":"QFT","qubits":1}}`, http.StatusBadRequest, service.CodeInvalidRequest},
	{`{"workload":{"family":"QFT","qubits":10},"grouping":"bogus"}`, http.StatusBadRequest, service.CodeUnknownGrouping},
	{`{"workload":{"family":"QFT","qubits":10},"aods":99}`, http.StatusBadRequest, service.CodeInvalidRequest},
	{`{"workload":{"family":"QFT","qubits":10},"scheme":"warp"}`, http.StatusBadRequest, service.CodeInvalidRequest},
	{`{"workload":{"family":"QFT","qubits":10},"colour":"blue"}`, http.StatusBadRequest, service.CodeInvalidRequest},
	{`{"qasm":"OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n"}`, http.StatusBadRequest, service.CodeInvalidRequest},
	{`{"workload":{"family":"QFT","qubits":10`, http.StatusBadRequest, service.CodeInvalidRequest},
	{`{}`, http.StatusBadRequest, service.CodeInvalidRequest},
}

// mixGen deals the seeded operation stream. The same seed gives the same
// stream. Classes, and the family, size and scheme of each generated
// request, come from decks, so every seed does the same mix of work in its
// own order; hot keys are drawn by a Zipf law over ranks that a seeded
// permutation maps onto keys, so each seed has its own popular keys.
type mixGen struct {
	r       *rand.Rand
	classes *classDeck
	zipf    *rand.Zipf
	hot     [][]byte
	perm    []int
	bases   []*circuit.Circuit
	// Decks over each class's domain, a family times a size grid: fresh
	// also deals a scheme. The decks are small enough that a run deals
	// each several times over.
	fresh, freshScheme, verify, async, edit, invalid *deck
}

// domain is the family-by-size grid a class's deck deals from.
type domain struct {
	families           []experiments.Family
	first, step, count int // sizes first, first+step, ...
}

func (d domain) size() int { return len(d.families) * d.count }

// at returns the domain's x-th family and size, rounded into the family's
// valid domain.
func (d domain) at(x int) (experiments.Family, int) {
	f := d.families[x/d.count]
	return f, validSize(f, d.first+d.step*(x%d.count))
}

// The class domains. Fresh leaves out QFT: its generator ignores the
// seed, so a "new" QFT workload is an old circuit under a new key, and
// QFT's compile grows as n², to ten times the rest of the domain at n=40.
var (
	freshDomain = domain{[]experiments.Family{
		experiments.QAOARegular3, experiments.QAOARegular4, experiments.QAOARandom,
		experiments.BV, experiments.VQE, experiments.QSim,
	}, 10, 5, 7} // n = 10, 15, ..., 40
	verifyDomain = domain{validFamilies, 10, 1, 5} // n = 10..14
	asyncDomain  = domain{validFamilies, 10, 4, 4} // n = 10, 14, 18, 22
)

// freshSchemes deals the fresh class's schemes: 7 in 10 with-storage, 3
// non-storage. Fresh traffic is PowerMove compiles: an Enola compile of a
// 30-40 qubit random graph takes 50-270 ms, a hundred times the rest, and
// would set the tail alone.
var freshSchemes = []string{
	"with-storage", "with-storage", "with-storage", "with-storage", "with-storage",
	"with-storage", "with-storage", "non-storage", "non-storage", "non-storage",
}

func newMixGen(seed int64) *mixGen {
	r := rand.New(rand.NewSource(seed))
	hot := hotKeys()
	return &mixGen{
		r:           r,
		classes:     newClassDeck(r),
		zipf:        newZipf(r, len(hot)),
		hot:         hot,
		perm:        r.Perm(len(hot)),
		bases:       editBases(),
		fresh:       newDeck(r, freshDomain.size()),
		freshScheme: newDeck(r, len(freshSchemes)),
		verify:      newDeck(r, verifyDomain.size()),
		async:       newDeck(r, asyncDomain.size()),
		edit:        newDeck(r, len(editBases())),
		invalid:     newDeck(r, len(invalidBodies)),
	}
}

func (g *mixGen) take(n int) []fleetReq {
	out := make([]fleetReq, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// next deals one operation.
func (g *mixGen) next() fleetReq {
	c := g.classes.draw()
	switch c {
	case classHot:
		b := g.hot[g.perm[g.zipf.Uint64()]]
		return fleetReq{class: c, path: "/v1/compile", body: b, ref: b}
	case classFresh:
		f, n := freshDomain.at(g.fresh.draw())
		seed := g.r.Int63()
		b := compileBody(f, n, &seed, freshSchemes[g.freshScheme.draw()], false)
		return fleetReq{class: c, path: "/v1/compile", body: b, ref: b}
	case classEdit:
		b := qasmBody(qasm.Write(editTail(g.bases[g.edit.draw()], g.r)))
		return fleetReq{class: c, path: "/v1/compile", body: b, ref: b}
	case classVerify:
		f, n := verifyDomain.at(g.verify.draw())
		seed := g.r.Int63()
		return fleetReq{class: c, path: "/v1/compile?verify=1",
			body: compileBody(f, n, &seed, "with-storage", false),
			ref:  compileBody(f, n, &seed, "with-storage", true)}
	case classAsync:
		f, n := asyncDomain.at(g.async.draw())
		seed := g.r.Int63()
		inner := compileBody(f, n, &seed, "with-storage", false)
		return fleetReq{class: c, path: "/v1/jobs", body: []byte(fmt.Sprintf(`{"compile":%s}`, inner)), ref: inner}
	default:
		inv := invalidBodies[g.invalid.draw()]
		return fleetReq{class: c, path: "/v1/compile", body: []byte(inv.body), wantStatus: inv.status, wantCode: inv.code}
	}
}

// editTail returns a copy of base whose last block is replaced by the same
// number of random distinct CZ pairs: a tail edit that keeps every
// earlier block, so the compile can resume from the shared prefix.
func editTail(base *circuit.Circuit, r *rand.Rand) *circuit.Circuit {
	c := base.Clone()
	last := &c.Blocks[len(c.Blocks)-1]
	seen := map[[2]int]bool{}
	gates := make([]circuit.CZ, 0, len(last.Gates))
	for len(gates) < len(last.Gates) {
		a, b := r.Intn(c.Qubits), r.Intn(c.Qubits)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		gates = append(gates, circuit.NewCZ(a, b))
	}
	last.Gates = gates
	return c
}
