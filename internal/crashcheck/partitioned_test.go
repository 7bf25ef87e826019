package crashcheck

import (
	"testing"
)

// TestPartitionedSweepClean sweeps a reduced window-boundary point set over
// the partitioned deployment's failover/resync path: no acknowledged write
// may be lost and replicas must converge byte-identically at every crash
// window.
func TestPartitionedSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("partitioned sweep is seconds-long")
	}
	cfg := DefaultPartitionedConfig(1)
	cfg.Points = 8
	cfg.SecondCrashEvery = 4
	res := PartitionedSweep(cfg)
	if res.ViolationCount != 0 {
		for _, v := range res.Violations {
			t.Error(v)
		}
		t.Fatalf("%d violations over %d points (minimal: %v)",
			res.ViolationCount, res.Points, res.Minimal())
	}
	if res.Points != 8 {
		t.Fatalf("swept %d points, want 8", res.Points)
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
}

// TestPartitionedSweepDeterministic pins the coordinate-system claim: the
// same sweep run twice crashes at the same windows, drives the same
// failover work, and reaches the same verdicts — a violation replays from
// its (seed, window) pair.
func TestPartitionedSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("partitioned sweep is seconds-long")
	}
	cfg := DefaultPartitionedConfig(7)
	cfg.Points = 3
	cfg.SecondCrashEvery = 0
	a := PartitionedSweep(cfg)
	b := PartitionedSweep(cfg)
	if a.Windows != b.Windows || a.Failovers != b.Failovers ||
		a.Resyncs != b.Resyncs || a.Shipped != b.Shipped ||
		a.Replayed != b.Replayed || a.ViolationCount != b.ViolationCount {
		t.Fatalf("sweep not reproducible:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestPartitionedMutantsCaught seeds both known bug classes and expects the
// sweep to flag each within a handful of points.
func TestPartitionedMutantsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("partitioned sweep is seconds-long")
	}
	for _, mutant := range []string{"ackbug", "resurrect"} {
		t.Run(mutant, func(t *testing.T) {
			cfg := DefaultPartitionedConfig(3)
			cfg.Points = 6
			cfg.SecondCrashEvery = 0
			cfg.Mutant = mutant
			res := PartitionedSweep(cfg)
			if res.ViolationCount == 0 {
				t.Fatalf("seeded %q mutant survived %d crash points undetected", mutant, res.Points)
			}
		})
	}
}
