package experiments

import (
	"strings"
	"testing"
)

func TestTable2SpecsComplete(t *testing.T) {
	specs := Table2Specs()
	if len(specs) != 23 {
		t.Fatalf("%d benchmark rows, Table 2 has 23", len(specs))
	}
	families := make(map[Family]int)
	for _, s := range specs {
		families[s.Family]++
	}
	want := map[Family]int{
		QAOARegular3: 6, QAOARegular4: 5, QAOARandom: 2,
		QFT: 2, BV: 3, VQE: 2, QSim: 3,
	}
	for fam, n := range want {
		if families[fam] != n {
			t.Errorf("family %s has %d rows, want %d", fam, families[fam], n)
		}
	}
}

func TestSpecCircuits(t *testing.T) {
	for _, spec := range Table2Specs() {
		c, err := spec.Circuit()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if c.Qubits != spec.Qubits {
			t.Errorf("%s: circuit has %d qubits", spec, c.Qubits)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	if _, err := (Spec{Family: "bogus", Qubits: 4}).Circuit(); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestSpecCheck: every paper instance passes Check, and Check rejects
// the instances whose generators would panic.
func TestSpecCheck(t *testing.T) {
	specs := Table2Specs()
	for _, f := range Figure6Families() {
		for _, n := range Figure6Sizes(f) {
			specs = append(specs, Spec{Family: f, Qubits: n})
		}
	}
	for _, spec := range specs {
		if err := spec.Check(); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	for _, bad := range []Spec{
		{QAOARegular3, 5}, {QAOARegular3, 31}, {QAOARegular4, 3}, {QAOARegular4, 4},
		{BV, 1}, {QFT, 0}, {"bogus", 4},
	} {
		if err := bad.Check(); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestSpecDeterministicSeeds(t *testing.T) {
	s := Spec{Family: QAOARandom, Qubits: 20}
	a, _ := s.Circuit()
	b, _ := s.Circuit()
	if a.CZCount() != b.CZCount() {
		t.Error("same spec produced different circuits")
	}
	other := Spec{Family: QAOARandom, Qubits: 21}
	if s.seed() == other.seed() {
		t.Error("different specs share a seed")
	}
	if s.seed() != (Spec{Family: QAOARandom, Qubits: 20}).seed() {
		t.Error("seed not stable")
	}
}

// TestRunSmallBenchmark runs the full three-way comparison on the
// smallest instance and checks the paper's qualitative orderings.
func TestRunSmallBenchmark(t *testing.T) {
	row, err := Run(Spec{Family: QSim, Qubits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if row.WithStorage.Fidelity <= row.Enola.Fidelity {
		t.Errorf("with-storage fidelity %v not above baseline %v",
			row.WithStorage.Fidelity, row.Enola.Fidelity)
	}
	if row.WithStorage.Components.Excitation != 1 {
		t.Errorf("with-storage excitation component = %v, want 1",
			row.WithStorage.Components.Excitation)
	}
	if row.NonStorage.Texe >= row.Enola.Texe {
		t.Errorf("non-storage Texe %v not below baseline %v",
			row.NonStorage.Texe, row.Enola.Texe)
	}
	if row.FidelityImprovement() <= 1 {
		t.Errorf("fidelity improvement %v, want > 1", row.FidelityImprovement())
	}
	if row.TexeImprovement() <= 1 {
		t.Errorf("Texe improvement %v, want > 1", row.TexeImprovement())
	}
	if row.Enola.Tcomp <= 0 || row.NonStorage.Tcomp <= 0 {
		t.Error("compile times not recorded")
	}
}

func TestFigure6Sizes(t *testing.T) {
	for _, fam := range Figure6Families() {
		sizes := Figure6Sizes(fam)
		if len(sizes) < 3 {
			t.Errorf("%s: only %d sweep sizes", fam, len(sizes))
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= sizes[i-1] {
				t.Errorf("%s: sizes not increasing: %v", fam, sizes)
			}
		}
	}
	if Figure6Sizes(QAOARegular4) != nil {
		t.Error("QAOA-regular4 is not a Fig. 6 panel")
	}
	if _, err := Figure6(QAOARegular4); err == nil {
		t.Error("Figure6 accepted a non-panel family")
	}
}

func TestFigure7Specs(t *testing.T) {
	specs := Figure7Specs()
	if len(specs) != 5 {
		t.Fatalf("%d Fig. 7 benchmarks, want 5", len(specs))
	}
	want := map[string]bool{
		"QAOA-regular3-100": true, "QSIM-rand-20": true,
		"QFT-18": true, "VQE-50": true, "BV-70": true,
	}
	for _, s := range specs {
		if !want[s.String()] {
			t.Errorf("unexpected Fig. 7 spec %s", s)
		}
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	out := t1.Render()
	for _, piece := range []string{"99.5%", "270 ns", "2750", "100 us"} {
		if !strings.Contains(out, piece) {
			t.Errorf("Table 1 missing %q:\n%s", piece, out)
		}
	}
	t2 := Table2()
	if len(t2.Rows) != 23 {
		t.Errorf("Table 2 has %d rows, want 23", len(t2.Rows))
	}
	out2 := t2.Render()
	for _, piece := range []string{"90 x 90", "150 x 300", "QAOA-regular3"} {
		if !strings.Contains(out2, piece) {
			t.Errorf("Table 2 missing %q", piece)
		}
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{Family: BV, Qubits: 70}).String(); got != "BV-70" {
		t.Errorf("String = %q", got)
	}
}
