package bench

import (
	"runtime"
	"testing"
)

// TestParallelScaleDeterminism runs the scaling workload twice, with the
// pooled cross-transfer slabs active, and checks the run is reproducible —
// same events, switches, fingerprint and coordination counters — and
// non-degenerate; ParallelScale itself errors on an inconsistent cluster.
func TestParallelScaleDeterminism(t *testing.T) {
	o := tiny()
	o.Ops = 400
	run := func() *ScaleResult {
		sr, err := o.ParallelScale()
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a, b := run(), run()
	if a.Events == 0 || a.Crossed == 0 || a.Windows == 0 || a.Switches == 0 {
		t.Fatalf("degenerate counters %+v", a)
	}
	if a.Fingerprint != b.Fingerprint || a.Events != b.Events || a.Switches != b.Switches ||
		a.Windows != b.Windows || a.Barriers != b.Barriers || a.IdleSkips != b.IdleSkips {
		t.Fatalf("two runs diverged:\n%+v\n%+v", a, b)
	}
	if a.SlabHitPct < 50 {
		t.Fatalf("cross-transfer slab hit rate %.1f%% — pooling not engaging", a.SlabHitPct)
	}
}

// TestMillionClientSmokeReduced runs the population smoke at a reduced
// population: invariants must hold and the run must be reproducible.
func TestMillionClientSmokeReduced(t *testing.T) {
	o := tiny()
	o.Ops = 300
	a, err := o.MillionClientSmoke(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK {
		t.Fatalf("smoke invariants failed: %+v", a)
	}
	if a.Completed != o.Ops || a.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", a.Completed, a.Errors)
	}
	b, err := o.MillionClientSmoke(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint != a.Fingerprint {
		t.Fatalf("smoke fingerprint diverged between two runs: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestPartitionedShutdownReleasesHeap is the cross-transfer counterpart of
// TestDeploymentShutdownReleasesHeap: the partitioned scaling run exercises
// the engine outboxes and the fabric's pooled transfer slabs, both of which
// buffer delivered messages and their completion closures. Engine.Shutdown
// must drop those references (and flush must zero delivered entries) or
// every retired deployment pins its last windows' payloads and closures.
func TestPartitionedShutdownReleasesHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	o := tiny()
	o.Ops = 200
	deploy := func() {
		if _, err := o.ParallelScale(); err != nil {
			t.Fatal(err)
		}
	}
	deploy() // warm-up: pools and lazily built tables
	before := heap()
	const repeats = 4
	for i := 0; i < repeats; i++ {
		deploy()
	}
	after := heap()
	growth := int64(after) - int64(before)
	t.Logf("heap before=%.1f MB after=%.1f MB growth=%.1f MB over %d partitioned deployments",
		float64(before)/(1<<20), float64(after)/(1<<20), float64(growth)/(1<<20), repeats)
	if growth > 16<<20 {
		t.Fatalf("retained heap grew %.1f MB over %d shut-down partitioned deployments — outbox or transfer slabs leaking",
			float64(growth)/(1<<20), repeats)
	}
}

// TestDeploymentShutdownReleasesHeap pins the parked-proc leak fix:
// back-to-back deployments previously each pinned ~100 MB (every proc left
// suspended in its last blocking call, plus the event free lists), so a
// ladder of runs grew the heap linearly. With Engine.Shutdown reaping each
// finished deployment, retained heap must stay flat across repeats.
func TestDeploymentShutdownReleasesHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // second pass collects what the first pass's finalizers freed
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	o := tiny()
	o.Ops = 200
	// Warm-up establishes the steady-state baseline (pools, lazily built
	// tables) so the delta below measures per-deployment retention only.
	if _, err := o.MillionClientSmoke(10_000); err != nil {
		t.Fatal(err)
	}
	before := heap()
	const repeats = 4
	for i := 0; i < repeats; i++ {
		if _, err := o.MillionClientSmoke(10_000); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	growth := int64(after) - int64(before)
	t.Logf("heap before=%.1f MB after=%.1f MB growth=%.1f MB over %d deployments",
		float64(before)/(1<<20), float64(after)/(1<<20), float64(growth)/(1<<20), repeats)
	// A single leaked deployment at this size pins tens of MB; four pin well
	// over the bound. Flat-with-noise passes, linear growth fails.
	if growth > 16<<20 {
		t.Fatalf("retained heap grew %.1f MB over %d shut-down deployments — parked procs leaking again",
			float64(growth)/(1<<20), repeats)
	}
}
