package scenario

import (
	"reflect"
	"testing"

	"prdma/internal/ycsb"
)

// reducedMatrix is a small cell set sized for unit tests: fewer crash
// points, the adversaries that exercise every injector mechanism.
func reducedMatrix(seed int64, faults []string, workloads []ycsb.Workload) MatrixSpec {
	m := DefaultMatrixSpec(seed)
	m.Points = 4
	m.SecondCrashEvery = 3
	m.Workloads = workloads
	m.Faults = m.Faults[:0]
	for _, name := range faults {
		f, err := FaultByName(name)
		if err != nil {
			panic(err)
		}
		m.Faults = append(m.Faults, f)
	}
	return m
}

// TestMatrixCellsClean sweeps a reduced adversary × workload set and
// expects every §4.2 invariant to hold at every crash point.
func TestMatrixCellsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweeps are slow")
	}
	m := reducedMatrix(7, []string{"partition", "duplicate"}, []ycsb.Workload{ycsb.A, ycsb.E})
	rows, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("cell %s/%s: %d violations, first: %s\nrepro: %s",
				r.Fault, r.Workload, r.Violations, r.First, r.Repro)
		}
	}
	// The partition cells must actually have partitioned something, and
	// the duplicate cells duplicated something — an inert adversary would
	// pass vacuously.
	for _, r := range rows {
		switch r.Fault {
		case "partition":
			if r.FaultDrops == 0 {
				t.Errorf("partition/%s: adversary dropped nothing", r.Workload)
			}
			if r.Resends == 0 {
				t.Errorf("partition/%s: no retransmissions rode out the cut", r.Workload)
			}
		case "duplicate":
			if r.Duplicated == 0 {
				t.Errorf("duplicate/%s: adversary duplicated nothing", r.Workload)
			}
		}
	}
}

// TestMatrixDeterministic runs the same cell twice and expects
// byte-identical rows: the whole sweep is a pure function of the seed.
func TestMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweeps are slow")
	}
	m := reducedMatrix(11, []string{"chaos"}, []ycsb.Workload{ycsb.B})
	a, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different rows:\n%+v\n%+v", a, b)
	}
}

// TestMatrixMutantsDetected seeds each known bug class and expects the
// matrix to catch it in at least one cell — the checker's checker.
func TestMatrixMutantsDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweeps are slow")
	}
	for _, mutant := range []string{"ackbug", "resurrect"} {
		m := reducedMatrix(7, []string{"none", "partition"}, []ycsb.Workload{ycsb.A})
		// The ackbug window (ACK issued at DMA completion, crash before the
		// media persist lands) is narrow; give the sweep the full crash-point
		// budget so at least one point falls inside it.
		m.Points = 12
		m.Mutant = mutant
		rows, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.Violations
		}
		if total == 0 {
			t.Errorf("mutant %q survived the matrix undetected", mutant)
		}
	}
}

func TestParseWorkloads(t *testing.T) {
	ws, err := ParseWorkloads("a,B F")
	if err != nil {
		t.Fatal(err)
	}
	want := []ycsb.Workload{ycsb.A, ycsb.B, ycsb.F}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("got %v want %v", ws, want)
	}
	if _, err := ParseWorkloads("AG"); err == nil {
		t.Fatal("workload G should be rejected")
	}
	if _, err := ParseWorkloads(""); err == nil {
		t.Fatal("empty workload set should be rejected")
	}
}

func TestFaultByName(t *testing.T) {
	for _, name := range FaultNames() {
		f, err := FaultByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("builtin fault %q invalid: %v", name, err)
		}
	}
	if _, err := FaultByName("nope"); err == nil {
		t.Fatal("unknown fault should be rejected")
	}
}

// TestMatrixCellDeterministic runs faulted cells on the engine twice: each
// adversary draws per source endpoint, so every row — performance, injector
// counters, controller work and verdict — must be identical across runs,
// and the adversary must actually have interfered.
func TestMatrixCellDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweeps are slow")
	}
	m := reducedMatrix(7, []string{"partition", "chaos"}, []ycsb.Workload{ycsb.A})
	base, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range base {
		if r.Violations != 0 {
			t.Errorf("cell %s/%s: %d violations, first: %s", r.Fault, r.Workload, r.Violations, r.First)
		}
		if r.FaultDrops == 0 || r.Resends == 0 {
			t.Errorf("cell %s/%s: adversary inert (drops=%d resends=%d)", r.Fault, r.Workload, r.FaultDrops, r.Resends)
		}
		if r.Fault == "chaos" && (r.Duplicated == 0 || r.Reordered == 0) {
			t.Errorf("chaos/%s: dup=%d reorder=%d, want both > 0", r.Workload, r.Duplicated, r.Reordered)
		}
	}
	rows, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, base) {
		t.Fatalf("rows differ between two runs:\n%+v\n%+v", rows, base)
	}
}
