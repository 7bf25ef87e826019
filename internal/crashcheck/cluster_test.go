package crashcheck

import (
	"reflect"
	"testing"

	"prdma/internal/fabric"
	"prdma/internal/ycsb"
)

// sweepFault is a reduced chaos adversary for the cluster sweep tests: a
// healing symmetric cut of one replica under reordering, duplication and
// periodic loss.
func sweepFault() *fabric.FaultSpec {
	return &fabric.FaultSpec{
		Name:         "chaos",
		Partitions:   []fabric.PartitionSpec{{To: "s1r2", Symmetric: true, StartUS: 200, EndUS: 450}},
		ReorderProb:  0.1,
		ReorderMaxUS: 15,
		DupProb:      0.1,
		DupDelayUS:   8,
		Bursts:       []fabric.BurstSpec{{StartUS: 100, PeriodUS: 300, LenUS: 80, DropProb: 0.35}},
	}
}

// TestClusterSweepClean sweeps a reduced point set over the cluster
// failover/resync path under a YCSB workload and a fault set: no
// acknowledged write may be lost and replicas must converge byte-identically
// at every crash placement, with the adversary visibly at work.
func TestClusterSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep is seconds-long")
	}
	cfg := DefaultPartitionedConfig(1)
	cfg.Points = 12
	cfg.SecondCrashEvery = 4
	cfg.Workload = ycsb.A
	cfg.Fault = sweepFault()
	res := PartitionedSweep(cfg)
	if res.ViolationCount != 0 {
		for _, v := range res.Violations {
			t.Error(v)
		}
		t.Fatalf("%d violations over %d points (minimal: %v)",
			res.ViolationCount, res.Points, res.Minimal())
	}
	if res.Points != 12 {
		t.Fatalf("swept %d points, want 12", res.Points)
	}
	if res.Failovers == 0 {
		t.Fatal("no crash was ever detected — the sweep tested nothing")
	}
	if res.Resyncs == 0 {
		t.Fatal("no resync completed — readmission path untested")
	}
	if res.Shipped == 0 {
		t.Fatal("log shipping never ran")
	}
	if res.Ref.FaultDrops == 0 || res.Ref.Duplicated == 0 || res.Ref.Reordered == 0 {
		t.Fatalf("adversary inert in the reference run: %+v", res.Ref)
	}
	if res.Ref.Ops == 0 || res.Ref.KOPS <= 0 {
		t.Fatalf("degenerate reference row: %+v", res.Ref)
	}
}

// TestClusterSweepDeterministic runs one faulted YCSB sweep twice and
// expects identical outcomes: window count, reference row, controller work
// and violations.
func TestClusterSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep is seconds-long")
	}
	cfg := DefaultPartitionedConfig(7)
	cfg.Points = 3
	cfg.SecondCrashEvery = 0
	cfg.Workload = ycsb.F
	cfg.Fault = sweepFault()
	a := PartitionedSweep(cfg)
	b := PartitionedSweep(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not deterministic:\n  a=%+v\n  b=%+v", a, b)
	}
}
